// MGL end-to-end tests on generated designs: legality, determinism and
// window behavior. Thread-count invariance of the whole pipeline is tested
// in test_executor.cpp.
#include <gtest/gtest.h>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "legal/mgl/window.hpp"
#include "legal/pipeline.hpp"

namespace mclg {
namespace {

GenSpec testSpec(double density, std::uint64_t seed = 5) {
  GenSpec spec;
  spec.cellsPerHeight = {400, 60, 20, 10};
  spec.density = density;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = seed;
  return spec;
}

MglStats runMgl(Design& design, const MglConfig& config) {
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, config);
  return legalizer.run();
}

TEST(Window, GrowsAndClamps) {
  Design d;
  d.numSitesX = 100;
  d.numRows = 50;
  CellType t{"T", 2, 1, -1, 0, 0, {}};
  WindowParams params;
  const Rect w0 = makeWindow(d, 50, 25, t, params, 0);
  const Rect w2 = makeWindow(d, 50, 25, t, params, 2);
  EXPECT_GT(w2.width(), w0.width());
  EXPECT_GT(w2.height(), w0.height());
  const Rect wMax = makeWindow(d, 50, 25, t, params, params.maxExpansions);
  EXPECT_EQ(wMax, Rect(0, 0, 100, 50));
  // Clipped at the core boundary.
  const Rect corner = makeWindow(d, 0, 0, t, params, 0);
  EXPECT_EQ(corner.xlo, 0);
  EXPECT_EQ(corner.ylo, 0);
}

TEST(Mgl, LegalizesModerateDensity) {
  Design design = generate(testSpec(0.5));
  const auto stats = runMgl(design, {});
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.placed, 490);
  const SegmentMap segments(design);
  const auto report = checkLegality(design, segments);
  EXPECT_TRUE(report.legal())
      << "overlaps=" << report.overlaps << " fence=" << report.fenceViolations
      << " parity=" << report.parityViolations;
  EXPECT_EQ(countEdgeSpacingViolations(design), 0);
}

TEST(Mgl, LegalizesHighDensity) {
  Design design = generate(testSpec(0.85, 6));
  const auto stats = runMgl(design, {});
  EXPECT_EQ(stats.failed, 0);
  const SegmentMap segments(design);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Mgl, DisplacementStaysSmallAtLowDensity) {
  Design design = generate(testSpec(0.3, 7));
  runMgl(design, {});
  const auto stats = displacementStats(design);
  // Plenty of room: the height-weighted average should be ~1 row height.
  EXPECT_LT(stats.average, 2.0);
}

TEST(Mgl, DeterministicAcrossRuns) {
  Design a = generate(testSpec(0.6, 8));
  Design b = generate(testSpec(0.6, 8));
  runMgl(a, {});
  runMgl(b, {});
  for (CellId c = 0; c < a.numCells(); ++c) {
    EXPECT_EQ(a.cells[c].x, b.cells[c].x) << "cell " << c;
    EXPECT_EQ(a.cells[c].y, b.cells[c].y) << "cell " << c;
  }
}

TEST(Mgl, ParallelMatchesLegality) {
  // MGL itself is serial; the parallel stages after it keep its placement
  // legal.
  Design design = generate(testSpec(0.7, 10));
  const SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config;
  config.setThreads(4);
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Mgl, MakesProgressUnderExpansionAtHighDensity) {
  // A dense design forces window expansions; retrying each expanded window
  // must neither starve a cell nor loop.
  GenSpec spec;
  spec.cellsPerHeight = {350, 45, 15, 8};
  spec.density = 0.85;
  spec.numFences = 2;
  spec.seed = 173;
  Design design = generate(spec);
  const auto stats = runMgl(design, {});
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GT(stats.windowExpansions, 0);  // expansions actually happened
}

TEST(Mgl, FenceCellsEndUpInFences) {
  Design design = generate(testSpec(0.5, 11));
  runMgl(design, {});
  const SegmentMap segments(design);
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed || cell.fence == kDefaultFence) continue;
    EXPECT_TRUE(segments.spanInFence(cell.y, design.heightOf(c), cell.x,
                                     design.widthOf(c), cell.fence))
        << "cell " << c;
  }
}

TEST(Mgl, RoutabilityReducesPinViolations) {
  Design with = generate(testSpec(0.5, 12));
  Design without = generate(testSpec(0.5, 12));
  MglConfig configOn;
  configOn.insertion.routability = true;
  MglConfig configOff;
  configOff.insertion.routability = false;
  runMgl(with, configOn);
  runMgl(without, configOff);
  const auto vOn = countPinViolations(with);
  const auto vOff = countPinViolations(without);
  EXPECT_LT(vOn.total(), vOff.total());
}

TEST(Mgl, MllObjectiveAlsoLegal) {
  Design design = generate(testSpec(0.6, 13));
  MglConfig config;
  config.insertion.gpObjective = false;
  const auto stats = runMgl(design, config);
  EXPECT_EQ(stats.failed, 0);
  const SegmentMap segments(design);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

}  // namespace
}  // namespace mclg
