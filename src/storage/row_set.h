/// \file row_set.h
/// \brief RowSet: a dense bitmap over the rowid space, the qualifying-row
/// set of a materialized query (conjunctions and multi-result specs).
///
/// Bit r is set when rowid r qualifies. The bitmap is sized to the largest
/// rowid it was built from, so rows appended by Insert past the base fit.
/// It costs one bit per rowid (128 KiB at 2^20 rows) whatever the
/// selectivity, and replaces sorting the select's unsorted rowid list:
/// building is one scattered bit-set per rowid, intersecting is a
/// word-wise AND, and walking the set bits yields the rowids ascending.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "storage/position_list.h"

namespace holix {

class RowSet {
 public:
  /// The empty set.
  RowSet() = default;

  /// The set of \p rows (any order). Throws std::logic_error when a rowid
  /// appears twice: a bitmap would silently merge the duplicate, so a
  /// select that ever emits one must fail loudly instead of returning a
  /// smaller count.
  explicit RowSet(const PositionList& rows) {
    if (rows.empty()) return;
    const RowId top = *std::max_element(rows.begin(), rows.end());
    words_.assign(top / kBits + 1, 0);
    for (RowId r : rows) words_[r / kBits] |= Bit(r);
    count_ = PopCount();
    if (count_ != rows.size()) {
      throw std::logic_error("RowSet: duplicate rowid in a select's output");
    }
  }

  /// Number of rowids in the set.
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Keeps only the rowids that \p rows (any order, duplicate-free) holds.
  void IntersectWith(const PositionList& rows) {
    const RowSet other(rows);
    words_.resize(std::min(words_.size(), other.words_.size()));
    for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
    count_ = PopCount();
  }

  /// Removes every rowid r for which keep(r) is false; keep sees the
  /// rowids in ascending order.
  template <typename Keep>
  void RetainIf(Keep&& keep) {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const RowId r = w * kBits + std::countr_zero(bits);
        if (!keep(r)) {
          words_[w] &= ~Bit(r);
          --count_;
        }
      }
    }
  }

  /// Calls f(r) for every rowid r in the set, in ascending order.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<RowId>(w * kBits + std::countr_zero(bits)));
      }
    }
  }

  /// The rowids in ascending order.
  PositionList ToList() const {
    PositionList out;
    out.reserve(count_);
    ForEach([&](RowId r) { out.push_back(r); });
    return out;
  }

 private:
  static constexpr size_t kBits = 64;

  static uint64_t Bit(RowId r) { return uint64_t{1} << (r % kBits); }

  size_t PopCount() const {
    size_t n = 0;
    for (uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

}  // namespace holix
