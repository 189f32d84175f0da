/// RowSet (dense rowid bitmap) tests: empty sets, word-boundary rowids
/// (0, 63, 64, 65), a rowid far past the rest (an appended row), disjoint
/// and identical intersections, intersections whose operands differ in
/// length, probe-style filtering, ascending emission from an unsorted
/// list, and the duplicate-rowid guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "storage/row_set.h"
#include "util/rng.h"

namespace holix {
namespace {

PositionList Emitted(const RowSet& s) {
  PositionList out;
  s.ForEach([&](RowId r) { out.push_back(r); });
  return out;
}

TEST(RowSet, EmptySets) {
  const RowSet none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.ToList().empty());
  EXPECT_TRUE(Emitted(none).empty());

  RowSet from_empty{PositionList{}};
  EXPECT_TRUE(from_empty.empty());
  from_empty.IntersectWith({1, 2, 3});
  EXPECT_TRUE(from_empty.empty());
  EXPECT_TRUE(from_empty.ToList().empty());

  RowSet some{PositionList{1, 2, 3}};
  some.IntersectWith({});
  EXPECT_TRUE(some.empty());
  EXPECT_TRUE(some.ToList().empty());
}

TEST(RowSet, RowIdZero) {
  const RowSet s{PositionList{0}};
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.ToList(), (PositionList{0}));
}

TEST(RowSet, WordBoundaryRowIds) {
  const RowSet s{PositionList{65, 63, 64}};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToList(), (PositionList{63, 64, 65}));

  RowSet cut{PositionList{63, 64, 65}};
  cut.IntersectWith({64});
  EXPECT_EQ(cut.ToList(), (PositionList{64}));

  for (RowId r : {RowId{63}, RowId{64}, RowId{65}}) {
    EXPECT_EQ(RowSet(PositionList{r}).ToList(), (PositionList{r}));
  }
}

TEST(RowSet, RowIdFarPastTheRest) {
  constexpr RowId kAppended = RowId{1} << 22;  // past a 2^20-row base
  const RowSet s{PositionList{kAppended, 5}};
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.ToList(), (PositionList{5, kAppended}));

  // The longer operand holds the far rowid: it cannot survive a shorter set.
  RowSet base{PositionList{1, 2, 3}};
  base.IntersectWith({kAppended, 2});
  EXPECT_EQ(base.ToList(), (PositionList{2}));

  // The shorter operand drops it from the longer set.
  RowSet with_appended{PositionList{kAppended, 7, 9}};
  with_appended.IntersectWith({9, 7});
  EXPECT_EQ(with_appended.size(), 2u);
  EXPECT_EQ(with_appended.ToList(), (PositionList{7, 9}));

  // Both operands hold it.
  RowSet both{PositionList{kAppended, 3}};
  both.IntersectWith({kAppended});
  EXPECT_EQ(both.ToList(), (PositionList{kAppended}));
}

TEST(RowSet, DisjointAndIdenticalIntersections) {
  RowSet disjoint{PositionList{1, 3, 5, 127}};
  disjoint.IntersectWith({0, 2, 4, 6, 128});
  EXPECT_TRUE(disjoint.empty());
  EXPECT_TRUE(disjoint.ToList().empty());

  const PositionList rows = {200, 0, 64, 63, 1000, 65};
  RowSet same{rows};
  same.IntersectWith(rows);
  EXPECT_EQ(same.size(), rows.size());
  EXPECT_EQ(same.ToList(), (PositionList{0, 63, 64, 65, 200, 1000}));
}

TEST(RowSet, RetainIfClearsMisses) {
  RowSet s{PositionList{10, 64, 3, 130, 0}};
  PositionList seen;
  s.RetainIf([&](RowId r) {
    seen.push_back(r);
    return r % 2 == 0 && r != 64;
  });
  EXPECT_EQ(seen, (PositionList{0, 3, 10, 64, 130}));  // ascending
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToList(), (PositionList{0, 10, 130}));

  s.RetainIf([](RowId) { return false; });
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.ToList().empty());
}

TEST(RowSet, EmitsAscendingFromAnUnsortedList) {
  Rng rng(7);
  PositionList rows;
  for (RowId r = 0; r < 100000; ++r) {
    if (rng.Below(3) == 0) rows.push_back(r);
  }
  const PositionList sorted = rows;
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.Below(i)]);
  }
  ASSERT_NE(rows, sorted);

  const RowSet s{rows};
  EXPECT_EQ(s.size(), sorted.size());
  EXPECT_EQ(s.ToList(), sorted);
  EXPECT_EQ(Emitted(s), sorted);

  // Intersecting with every other element of the shuffled list keeps
  // exactly that half, still ascending.
  PositionList half;
  for (size_t i = 0; i < rows.size(); i += 2) half.push_back(rows[i]);
  RowSet cut{rows};
  cut.IntersectWith(half);
  std::sort(half.begin(), half.end());
  EXPECT_EQ(cut.ToList(), half);
}

TEST(RowSet, DuplicateRowIdThrows) {
  EXPECT_THROW(RowSet(PositionList{3, 7, 3}), std::logic_error);
  EXPECT_THROW(RowSet(PositionList{64, 64}), std::logic_error);
  RowSet s{PositionList{1, 2}};
  EXPECT_THROW(s.IntersectWith({2, 5, 2}), std::logic_error);
}

}  // namespace
}  // namespace holix
