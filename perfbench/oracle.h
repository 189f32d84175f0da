/// \file oracle.h
/// \brief The benchmark's oracle. It answers every query a second time, from
/// a sorted copy of each column (single-predicate counts, with the run's
/// inserts and deletes tracked) or from a scan of the base columns in row
/// order (conjunctions). It runs outside every timed region.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// The live multiset of one int64 column: sorted base values plus the
/// values inserted and deleted since the column was loaded.
class ColumnOracle {
 public:
  ColumnOracle() = default;
  explicit ColumnOracle(std::vector<int64_t> base);

  /// Live rows with low <= value < high.
  uint64_t Count(int64_t low, int64_t high) const;
  /// Sum of the live values in [low, high).
  int64_t Sum(int64_t low, int64_t high) const;
  bool Contains(int64_t value) const { return Count(value, value + 1) > 0; }

  void Insert(int64_t value);
  /// Removes one live row holding \p value; the caller checks Contains().
  void Delete(int64_t value);
  /// Forgets every insert and delete: the column as loaded.
  void Reset();

  /// The value of a uniformly chosen base row.
  int64_t SampleBase(holix::Rng& rng) const;
  /// A uniformly chosen live inserted value; false when there is none.
  bool SampleInserted(holix::Rng& rng, int64_t* value) const;

 private:
  std::vector<int64_t> base_;      // sorted
  std::vector<int64_t> inserted_;  // sorted, live inserts
  std::vector<int64_t> deleted_;   // sorted, deletes that hit base rows
};

/// One conjunction of half-open int64 ranges over columns of one table,
/// asking for count and sum(sum_column).
struct Conjunction {
  std::vector<std::pair<size_t, std::pair<int64_t, int64_t>>> ranges;
  size_t sum_column = 0;
};

struct ConjunctionAnswer {
  uint64_t count = 0;
  int64_t sum = 0;
  bool operator==(const ConjunctionAnswer&) const = default;
};

/// Answers every conjunction by scanning \p columns (row order), split over
/// \p threads threads.
std::vector<ConjunctionAnswer> ScanConjunctions(
    const std::vector<std::vector<int64_t>>& columns,
    const std::vector<Conjunction>& queries, size_t threads);

}  // namespace perfbench
