// Maximum-displacement matching tests (paper §3.2, Eq. 3).
#include <gtest/gtest.h>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/maxdisp/matching_opt.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::smallDesign;

TEST(PhiCost, LinearBelowThreshold) {
  EXPECT_DOUBLE_EQ(phiCost(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(phiCost(5.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(phiCost(10.0, 10.0), 10.0);
}

TEST(PhiCost, QuinticAboveThreshold) {
  // δ^5 / δ0^4 with δ = 20, δ0 = 10: 3.2e6 / 1e4 = 320.
  EXPECT_DOUBLE_EQ(phiCost(20.0, 10.0), 320.0);
  EXPECT_DOUBLE_EQ(phiCost(30.0, 10.0), 2430.0);
}

TEST(PhiCost, ContinuousAtThreshold) {
  const double eps = 1e-9;
  EXPECT_NEAR(phiCost(10.0 + eps, 10.0), phiCost(10.0, 10.0), 1e-6);
}

TEST(PhiCost, StrictlyIncreasing) {
  double prev = -1.0;
  for (double delta = 0.0; delta < 40.0; delta += 0.5) {
    const double v = phiCost(delta, 10.0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(MaxDisp, SwapsTwoCrossedCells) {
  // Two same-type cells placed at each other's GP: matching must swap them.
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 0, 30.0, 7.0);
  PlacementState state(d);
  state.place(a, 30, 7);  // far from its GP
  state.place(b, 5, 2);
  MaxDispConfig config;
  config.delta0 = 1.0;
  const auto stats = optimizeMaxDisplacement(state, config);
  EXPECT_EQ(stats.cellsMoved, 2);
  EXPECT_EQ(d.cells[a].x, 5);
  EXPECT_EQ(d.cells[a].y, 2);
  EXPECT_EQ(d.cells[b].x, 30);
  EXPECT_EQ(d.cells[b].y, 7);
}

TEST(MaxDisp, DifferentTypesNeverSwap) {
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 2, 30.0, 5.0);  // different type
  PlacementState state(d);
  state.place(a, 30, 7);
  state.place(b, 5, 2);
  const auto stats = optimizeMaxDisplacement(state, {});
  EXPECT_EQ(stats.cellsMoved, 0);
}

TEST(MaxDisp, DifferentFencesNeverSwap) {
  Design d = smallDesign();
  d.fences.push_back({"f1", {{0, 0, 40, 10}}});
  const CellId a = addCell(d, 0, 5.0, 2.0, kDefaultFence);
  const CellId b = addCell(d, 0, 30.0, 7.0, 1);
  PlacementState state(d);
  state.place(a, 30, 7);
  state.place(b, 5, 2);
  const auto stats = optimizeMaxDisplacement(state, {});
  EXPECT_EQ(stats.cellsMoved, 0);
}

TEST(MaxDisp, NoMovesWhenAlreadyOptimal) {
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 0, 30.0, 7.0);
  PlacementState state(d);
  state.place(a, 5, 2);
  state.place(b, 30, 7);
  const auto stats = optimizeMaxDisplacement(state, {});
  EXPECT_EQ(stats.cellsMoved, 0);
}

TEST(MaxDisp, ReducesMaxOnGeneratedDesign) {
  GenSpec spec;
  spec.cellsPerHeight = {500, 50, 0, 0};
  spec.density = 0.75;
  spec.typesPerHeight = 2;  // few types -> large matching groups
  spec.seed = 21;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);

  const auto before = displacementStats(design);
  MaxDispConfig config;
  config.delta0 = 2.0;  // aggressive so the test bites
  optimizeMaxDisplacement(state, config);
  const auto after = displacementStats(design);
  EXPECT_LE(after.maximum, before.maximum + 1e-9);
  // Legality must be preserved exactly.
  const auto report = checkLegality(design, segments);
  EXPECT_TRUE(report.legal());
  // Pin and edge violation counts must not change (same positions reused).
  // (Checked via totals since per-position status is permutation-invariant.)
}

TEST(MaxDisp, PreservesViolationCounts) {
  GenSpec spec;
  spec.cellsPerHeight = {300, 30, 0, 0};
  spec.density = 0.6;
  spec.typesPerHeight = 2;
  spec.seed = 22;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);
  const auto pinsBefore = countPinViolations(design);
  const int edgesBefore = countEdgeSpacingViolations(design);
  MaxDispConfig config;
  config.delta0 = 2.0;
  optimizeMaxDisplacement(state, config);
  const auto pinsAfter = countPinViolations(design);
  EXPECT_EQ(pinsBefore.total(), pinsAfter.total());
  EXPECT_EQ(edgesBefore, countEdgeSpacingViolations(design));
}

TEST(MaxDisp, LargeGroupSplitStillLegal) {
  GenSpec spec;
  spec.cellsPerHeight = {600, 0, 0, 0};
  spec.density = 0.5;
  spec.typesPerHeight = 1;  // one giant group
  spec.seed = 23;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);
  MaxDispConfig config;
  config.maxGroupSize = 100;  // force chunking
  const auto stats = optimizeMaxDisplacement(state, config);
  EXPECT_GT(stats.groups, 1);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(FootprintMatching, SwapsAcrossTypesWithSameFootprint) {
  // Two types with identical footprints; cells placed at each other's GP.
  Design d = smallDesign();
  CellType clone = d.types[0];
  clone.name = "T0b";
  d.types.push_back(clone);
  const TypeId other = d.numTypes() - 1;
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, other, 30.0, 7.0);
  PlacementState state(d);
  state.place(a, 30, 7);
  state.place(b, 5, 2);

  MaxDispConfig typeGrouped;
  typeGrouped.delta0 = 1.0;
  EXPECT_EQ(optimizeMaxDisplacement(state, typeGrouped).cellsMoved, 0)
      << "different types must not swap in type-grouped mode";

  MaxDispConfig footprintGrouped = typeGrouped;
  footprintGrouped.groupByFootprint = true;
  EXPECT_EQ(optimizeMaxDisplacement(state, footprintGrouped).cellsMoved, 2);
  EXPECT_EQ(d.cells[a].x, 5);
  EXPECT_EQ(d.cells[b].x, 30);
}

TEST(FootprintMatching, DifferentFootprintsNeverMerge) {
  Design d = smallDesign();  // T0 is 2x1, T2 is 4x3
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 2, 30.0, 5.0);
  PlacementState state(d);
  state.place(a, 30, 2);
  state.place(b, 5, 5);
  MaxDispConfig config;
  config.groupByFootprint = true;
  EXPECT_EQ(optimizeMaxDisplacement(state, config).cellsMoved, 0);
}

TEST(FootprintMatching, ParallelMatchesSerial) {
  GenSpec s;
  s.cellsPerHeight = {600, 60, 0, 0};
  s.density = 0.7;
  s.typesPerHeight = 3;
  s.seed = 175;
  Design serial = generate(s);
  Design parallel = generate(s);
  for (Design* d : {&serial, &parallel}) {
    SegmentMap segments(*d);
    PlacementState state(*d);
    MglLegalizer legalizer(state, segments, {});
    ASSERT_EQ(legalizer.run().failed, 0);
    MaxDispConfig config;
    config.groupByFootprint = true;
    config.numThreads = d == &parallel ? 4 : 1;
    optimizeMaxDisplacement(state, config);
  }
  for (CellId c = 0; c < serial.numCells(); ++c) {
    ASSERT_EQ(serial.cells[c].x, parallel.cells[c].x) << "cell " << c;
    ASSERT_EQ(serial.cells[c].y, parallel.cells[c].y) << "cell " << c;
  }
}

}  // namespace
}  // namespace mclg
