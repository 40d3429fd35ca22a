// Insertion-engine tests: single-cell insertions, chain pushes, fences,
// parity, edge spacing, and the MGL-vs-MLL objective difference (Fig. 3).
#include <gtest/gtest.h>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "legal/mgl/insertion.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::addFixed;
using testing::smallDesign;

struct Fixture {
  Design design;
  std::unique_ptr<SegmentMap> segments;
  std::unique_ptr<PlacementState> state;

  explicit Fixture(Design d) : design(std::move(d)) {
    segments = std::make_unique<SegmentMap>(design);
    state = std::make_unique<PlacementState>(design);
  }

  bool insert(CellId c, InsertionConfig config = {},
              Rect window = {0, 0, 0, 0}) {
    if (window.empty()) window = {0, 0, design.numSitesX, design.numRows};
    config.routability = false;
    InsertionSearcher searcher(*state, *segments, config);
    return searcher.tryInsert(c, window);
  }
};

TEST(Insertion, EmptyRowPlacesAtGp) {
  Design d = smallDesign();
  const CellId c = addCell(d, 0, 17.0, 4.0);
  Fixture f(std::move(d));
  ASSERT_TRUE(f.insert(c));
  EXPECT_EQ(f.design.cells[c].x, 17);
  EXPECT_EQ(f.design.cells[c].y, 4);
}

TEST(Insertion, FractionalGpSnapsToNearestSite) {
  Design d = smallDesign();
  const CellId c = addCell(d, 0, 17.4, 4.0);
  Fixture f(std::move(d));
  ASSERT_TRUE(f.insert(c));
  EXPECT_EQ(f.design.cells[c].x, 17);
}

TEST(Insertion, ParityForcesEvenRow) {
  Design d = smallDesign();
  const CellId c = addCell(d, 1, 10.0, 3.0);  // double height, parity 0
  Fixture f(std::move(d));
  ASSERT_TRUE(f.insert(c));
  EXPECT_EQ(f.design.cells[c].y % 2, 0);
  // Nearest even rows to 3.0 are 2 and 4.
  EXPECT_TRUE(f.design.cells[c].y == 2 || f.design.cells[c].y == 4);
}

TEST(Insertion, PushesBlockingCellAside) {
  Design d = smallDesign();
  const CellId blocker = addCell(d, 0, 10.0, 4.0);
  const CellId c = addCell(d, 0, 10.0, 4.0);
  Fixture f(std::move(d));
  f.state->place(blocker, 10, 4);
  ASSERT_TRUE(f.insert(c));
  const SegmentMap map(f.design);
  EXPECT_TRUE(checkLegality(f.design, map).legal());
  // Both want (10, 4); one of them gets it, the other is adjacent (same row
  // costs 1 site = 0.5 rows; row above/below costs a full row height).
  const auto& cb = f.design.cells[blocker];
  const auto& ct = f.design.cells[c];
  EXPECT_EQ(cb.y, 4);
  EXPECT_EQ(ct.y, 4);
  EXPECT_EQ(std::abs(cb.x - ct.x), 2);
}

TEST(Insertion, ChainPushRespectsOrder) {
  Design d = smallDesign();
  // Three singles packed tight at (10..16, 4); target wants x=12.
  const CellId a = addCell(d, 0, 10.0, 4.0);
  const CellId b = addCell(d, 0, 12.0, 4.0);
  const CellId e = addCell(d, 0, 14.0, 4.0);
  const CellId t = addCell(d, 0, 12.0, 4.0);
  Fixture f(std::move(d));
  f.state->place(a, 10, 4);
  f.state->place(b, 12, 4);
  f.state->place(e, 14, 4);
  ASSERT_TRUE(f.insert(t));
  const SegmentMap map(f.design);
  EXPECT_TRUE(checkLegality(f.design, map).legal());
  // Order in row 4 must still be a, b, e (t inserted somewhere).
  EXPECT_LT(f.design.cells[a].x, f.design.cells[b].x);
  EXPECT_LT(f.design.cells[b].x, f.design.cells[e].x);
}

TEST(Insertion, MultiRowPushPropagates) {
  Design d = smallDesign();
  // A double-height cell straddles rows 4-5; pushing it must also respect a
  // single in row 5.
  const CellId dbl = addCell(d, 1, 10.0, 4.0);   // 3x2 at rows 4-5
  const CellId top = addCell(d, 0, 14.0, 5.0);   // 2x1 in row 5
  const CellId t = addCell(d, 0, 9.0, 4.0);      // wants (9, 4)
  Fixture f(std::move(d));
  f.state->place(dbl, 10, 4);
  f.state->place(top, 13, 5);
  ASSERT_TRUE(f.insert(t));
  const SegmentMap map(f.design);
  EXPECT_TRUE(checkLegality(f.design, map).legal());
}

TEST(Insertion, RespectsFenceBoundary) {
  Design d = smallDesign();
  d.fences.push_back({"f1", {{10, 2, 20, 6}}});
  const CellId c = addCell(d, 0, 30.0, 4.0, 1);  // fence cell, GP far outside
  Fixture f(std::move(d));
  ASSERT_TRUE(f.insert(c));
  EXPECT_GE(f.design.cells[c].x, 10);
  EXPECT_LE(f.design.cells[c].x + 2, 20);
  EXPECT_GE(f.design.cells[c].y, 2);
  EXPECT_LT(f.design.cells[c].y, 6);
}

TEST(Insertion, DefaultCellAvoidsFence) {
  Design d = smallDesign();
  d.fences.push_back({"f1", {{10, 0, 20, 10}}});
  const CellId c = addCell(d, 0, 14.0, 4.0);  // default cell, GP inside fence
  Fixture f(std::move(d));
  ASSERT_TRUE(f.insert(c));
  const bool leftOfFence = f.design.cells[c].x + 2 <= 10;
  const bool rightOfFence = f.design.cells[c].x >= 20;
  EXPECT_TRUE(leftOfFence || rightOfFence);
}

TEST(Insertion, FixedCellIsHardWall) {
  Design d = smallDesign();
  addFixed(d, 2, 12, 3);  // 4x3 blockage at rows 3-5
  const CellId c = addCell(d, 0, 13.0, 4.0);
  Fixture f(std::move(d));
  ASSERT_TRUE(f.insert(c));
  const SegmentMap map(f.design);
  EXPECT_TRUE(checkLegality(f.design, map).legal());
  // Must not overlap the blockage.
  const auto& cell = f.design.cells[c];
  const bool clear = cell.y < 3 || cell.y > 5 || cell.x + 2 <= 12 ||
                     cell.x >= 16;
  EXPECT_TRUE(clear);
}

TEST(Insertion, EdgeSpacingInsertsGap) {
  Design d = smallDesign();
  d.numEdgeClasses = 2;
  d.edgeSpacingTable = {0, 0, 0, 2};
  d.types[0].leftEdge = 1;
  d.types[0].rightEdge = 1;
  const CellId a = addCell(d, 0, 10.0, 4.0);
  const CellId t = addCell(d, 0, 10.0, 4.0);
  Fixture f(std::move(d));
  f.state->place(a, 10, 4);
  ASSERT_TRUE(f.insert(t));
  // Same row: gap between them must be >= 2 sites.
  const auto& ca = f.design.cells[a];
  const auto& ct = f.design.cells[t];
  if (ca.y == ct.y) {
    const std::int64_t gap = std::max(ca.x, ct.x) -
                             (std::min(ca.x, ct.x) + 2);
    EXPECT_GE(gap, 2);
  }
  EXPECT_EQ(countEdgeSpacingViolations(f.design), 0);
}

TEST(Insertion, FailsWhenWindowFull) {
  Design d = smallDesign();
  d.numSitesX = 8;
  d.numRows = 2;
  // Fill the 8x2 core with four 4x1... use singles: 8 cells of 2x1.
  std::vector<CellId> fillers;
  for (int i = 0; i < 8; ++i) {
    fillers.push_back(addCell(d, 0, static_cast<double>((i % 4) * 2), i / 4));
  }
  const CellId t = addCell(d, 0, 3.0, 0.0);
  Fixture f(std::move(d));
  for (int i = 0; i < 8; ++i) {
    f.state->place(fillers[static_cast<std::size_t>(i)], (i % 4) * 2, i / 4);
  }
  EXPECT_FALSE(f.insert(t));
}

// The defining MGL-vs-MLL distinction (paper Fig. 3): a local cell that was
// previously displaced right of its GP should be pushed back *toward* its
// GP when the objective is measured from GP (MGL), but MLL sees no benefit.
TEST(Insertion, GpObjectivePullsDisplacedCellsHome) {
  Design d = smallDesign();
  const CellId disp = addCell(d, 0, 10.0, 4.0);  // GP at 10
  const CellId t = addCell(d, 0, 14.0, 4.0);
  Fixture f(std::move(d));
  f.state->place(disp, 14, 4);  // previously displaced 4 sites right

  InsertionConfig mgl;
  mgl.gpObjective = true;
  mgl.contestWeights = false;
  ASSERT_TRUE(f.insert(t, mgl));
  // MGL: inserting t at ~14 and pushing disp LEFT toward 10 is free (type C
  // curve) — total cost ~ t's own displacement only.
  const SegmentMap map(f.design);
  EXPECT_TRUE(checkLegality(f.design, map).legal());
  const auto& cd = f.design.cells[disp];
  const auto& ct = f.design.cells[t];
  const double total =
      std::abs(cd.x - 10.0) * 0.5 + std::abs(ct.x - 14.0) * 0.5 +
      std::abs(cd.y - 4.0) + std::abs(ct.y - 4.0);
  EXPECT_LE(total, 2.01);  // optimum: disp back to <=12, t at 14
}

TEST(Insertion, CommitMatchesEvaluatedPosition) {
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 20.0, 7.0);
  Fixture f(std::move(d));
  InsertionConfig config;
  config.contestWeights = false;
  ASSERT_TRUE(f.insert(a, config));
  EXPECT_EQ(f.design.cells[a].x, 20);
  EXPECT_EQ(f.design.cells[a].y, 7);
  EXPECT_DOUBLE_EQ(f.design.displacement(a), 0.0);
}

// The push reach of the last cell of a 100k-cell abutting chain depends on
// every cell of the chain. Computing it must not recurse per cell.
TEST(Insertion, LongPushChainDoesNotExhaustTheStack) {
  constexpr int kChain = 100000;
  Design d = smallDesign();
  d.numRows = 1;
  // One free site pair at the left end, then the packed chain; the target
  // wants the right end, so every candidate pushes the whole chain left.
  d.numSitesX = 2 * kChain + 2;
  for (int i = 0; i < kChain; ++i) {
    addCell(d, 0, 2.0 + 2.0 * i, 0.0);
  }
  const CellId t = addCell(d, 0, 2.0 * kChain, 0.0);
  Fixture f(std::move(d));
  for (CellId i = 0; i < kChain; ++i) f.state->place(i, 2 + 2 * i, 0);
  ASSERT_TRUE(f.insert(t));
  // The target lands near its GP, and the chain left of it shifts by one
  // cell width down to the wall.
  EXPECT_GE(f.design.cells[t].x, 2 * kChain - 64);
  EXPECT_EQ(f.design.cells[0].x, 0);
  const SegmentMap map(f.design);
  EXPECT_TRUE(checkLegality(f.design, map).legal());
}

}  // namespace
}  // namespace mclg
