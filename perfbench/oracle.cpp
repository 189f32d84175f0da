#include "oracle.h"

#include <algorithm>
#include <thread>

namespace perfbench {

namespace {

uint64_t CountSorted(const std::vector<int64_t>& v, int64_t low,
                     int64_t high) {
  if (high <= low) return 0;
  return static_cast<uint64_t>(std::lower_bound(v.begin(), v.end(), high) -
                               std::lower_bound(v.begin(), v.end(), low));
}

void InsertSorted(std::vector<int64_t>& v, int64_t value) {
  v.insert(std::upper_bound(v.begin(), v.end(), value), value);
}

/// Sum of the values of sorted \p v in [low, high), walking the range.
int64_t SumSorted(const std::vector<int64_t>& v, int64_t low, int64_t high) {
  int64_t sum = 0;
  for (auto it = std::lower_bound(v.begin(), v.end(), low);
       it != v.end() && *it < high; ++it) {
    sum += *it;
  }
  return sum;
}

}  // namespace

ColumnOracle::ColumnOracle(std::vector<int64_t> base) : base_(std::move(base)) {
  std::sort(base_.begin(), base_.end());
}

uint64_t ColumnOracle::Count(int64_t low, int64_t high) const {
  return CountSorted(base_, low, high) + CountSorted(inserted_, low, high) -
         CountSorted(deleted_, low, high);
}

int64_t ColumnOracle::Sum(int64_t low, int64_t high) const {
  return SumSorted(base_, low, high) + SumSorted(inserted_, low, high) -
         SumSorted(deleted_, low, high);
}

void ColumnOracle::Insert(int64_t value) { InsertSorted(inserted_, value); }

void ColumnOracle::Delete(int64_t value) {
  const auto it = std::lower_bound(inserted_.begin(), inserted_.end(), value);
  if (it != inserted_.end() && *it == value) {
    inserted_.erase(it);
  } else {
    InsertSorted(deleted_, value);
  }
}

void ColumnOracle::Reset() {
  inserted_.clear();
  deleted_.clear();
}

int64_t ColumnOracle::SampleBase(holix::Rng& rng) const {
  return base_[rng.Below(base_.size())];
}

bool ColumnOracle::SampleInserted(holix::Rng& rng, int64_t* value) const {
  if (inserted_.empty()) return false;
  *value = inserted_[rng.Below(inserted_.size())];
  return true;
}

std::vector<ConjunctionAnswer> ScanConjunctions(
    const std::vector<std::vector<int64_t>>& columns,
    const std::vector<Conjunction>& queries, size_t threads) {
  std::vector<ConjunctionAnswer> out(queries.size());
  auto scan = [&](size_t first, size_t step) {
    for (size_t q = first; q < queries.size(); q += step) {
      const Conjunction& c = queries[q];
      const std::vector<int64_t>& sum_col = columns[c.sum_column];
      ConjunctionAnswer a;
      for (size_t row = 0; row < sum_col.size(); ++row) {
        bool hit = true;
        for (const auto& [col, range] : c.ranges) {
          const int64_t v = columns[col][row];
          hit = hit && v >= range.first && v < range.second;
        }
        if (hit) {
          ++a.count;
          a.sum += sum_col[row];
        }
      }
      out[q] = a;
    }
  };
  threads = std::max<size_t>(1, threads);
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(scan, t, threads);
  scan(0, threads);
  for (std::thread& th : pool) th.join();
  return out;
}

}  // namespace perfbench
