// Rip-up & re-insert refinement tests.
#include <gtest/gtest.h>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "legal/refine/ripup_refine.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::smallDesign;

TEST(Ripup, RecoversStrandedCell) {
  // A cell parked far from its GP with free space at the GP: one rip-up
  // brings it home.
  Design d = smallDesign();
  const CellId c = addCell(d, 0, 5.0, 2.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c, 35, 8);  // stranded
  RipupConfig config;
  config.displacementThreshold = 1.0;
  config.insertion.contestWeights = false;
  config.insertion.routability = false;
  const auto stats = ripupRefine(state, segments, config);
  EXPECT_EQ(stats.improved, 1);
  EXPECT_EQ(d.cells[c].x, 5);
  EXPECT_EQ(d.cells[c].y, 2);
  EXPECT_GT(stats.gain, 0.0);
}

TEST(Ripup, KeepsCellWhenNoBetterSpot) {
  // GP region fully walled off by fixed cells: the rip-up must restore the
  // original position exactly.
  Design d = smallDesign();
  for (std::int64_t y = 0; y < 10; ++y) {
    testing::addFixed(d, 0, 2, y);  // wall column at x=2..3
    testing::addFixed(d, 0, 0, y);  // and x=0..1: GP row span full
  }
  const CellId c = addCell(d, 0, 0.0, 5.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c, 20, 5);
  RipupConfig config;
  config.displacementThreshold = 1.0;
  config.insertion.contestWeights = false;
  config.insertion.routability = false;
  config.windowW = 8;  // window too small to see anything better
  config.windowH = 2;
  ripupRefine(state, segments, config);
  EXPECT_TRUE(d.cells[c].placed);
  // Never worse than before.
  EXPECT_LE(d.displacement(c), 0.5 * std::abs(20 - 0.0));
  EXPECT_TRUE(checkLegality(d, segments).legal());
}

TEST(Ripup, NeverDegradesOnGeneratedDesigns) {
  for (const std::uint64_t seed : {131, 132}) {
    GenSpec spec;
    spec.cellsPerHeight = {500, 60, 20, 10};
    spec.density = 0.75;
    spec.numFences = 2;
    spec.seed = seed;
    Design design = generate(spec);
    SegmentMap segments(design);
    PlacementState state(design);
    legalize(state, segments, PipelineConfig::contest());
    const auto before = displacementStats(design);
    const auto pinsBefore = countPinViolations(design);

    RipupConfig config;
    config.displacementThreshold = 3.0;
    const auto stats = ripupRefine(state, segments, config);
    const auto after = displacementStats(design);
    EXPECT_LE(after.average, before.average + 1e-9) << "seed " << seed;
    EXPECT_TRUE(checkLegality(design, segments).legal());
    EXPECT_EQ(countEdgeSpacingViolations(design), 0);
    // Routability-aware re-insertion should not add pin violations.
    EXPECT_LE(countPinViolations(design).total(), pinsBefore.total() + 2);
    EXPECT_GE(stats.attempted, stats.improved);
  }
}

TEST(Ripup, GainMatchesMeasuredImprovement) {
  GenSpec spec;
  spec.cellsPerHeight = {400, 0, 0, 0};  // single-height: exact estimates
  spec.density = 0.7;
  spec.withRoutability = false;
  spec.numEdgeClasses = 1;
  spec.seed = 133;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  legalize(state, segments, PipelineConfig::totalDisplacement());
  const double before = displacementStats(design).totalSites *
                        design.siteWidthFactor;  // row-height units
  RipupConfig config;
  config.displacementThreshold = 2.0;
  config.insertion.contestWeights = false;
  config.insertion.routability = false;
  const auto stats = ripupRefine(state, segments, config);
  const double after = displacementStats(design).totalSites *
                       design.siteWidthFactor;
  // Total improvement = rip-up gains + the between-pass MCF re-solve gains.
  EXPECT_NEAR(before - after, stats.gain + stats.mcfGain, 1e-6);
}

TEST(Ripup, McfResolveNeverDegrades) {
  // Several improving passes, each followed by an MCF re-solve.
  GenSpec spec;
  spec.cellsPerHeight = {500, 60, 20, 10};
  spec.density = 0.75;
  spec.numFences = 2;
  spec.seed = 134;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  legalize(state, segments, PipelineConfig::contest());
  const auto before = displacementStats(design);

  RipupConfig config;
  config.displacementThreshold = 2.0;
  config.passes = 4;
  const auto stats = ripupRefine(state, segments, config);
  EXPECT_TRUE(checkLegality(design, segments).legal());
  EXPECT_LE(displacementStats(design).average, before.average + 1e-9);
  EXPECT_GE(stats.mcfGain, -1e-6);
}

// Rip-up placements pinned at several pass counts: the between-pass MCF
// re-solves run on every input here (threshold 2 leaves improving passes up
// to the cap), so a change to the re-solve or the insertion it follows
// shows up as a new hash.
struct RipupPin {
  double density;
  std::uint64_t seed;
  int passes;
  std::uint64_t hash;
};

TEST(Ripup, PlacementHashesPinnedAcrossPassCounts) {
  const RipupPin pins[] = {
      {0.75, 134, 2, 0xedba32a0576012b2ull},
      {0.75, 134, 4, 0x489ab09d61401012ull},
      {0.75, 134, 8, 0x489ab09d61401012ull},
      {0.75, 1, 2, 0x2f90f554e8262f3cull},
      {0.75, 1, 4, 0x232a076bb06e6e74ull},
      {0.75, 1, 8, 0x232a076bb06e6e74ull},
      {0.90, 134, 2, 0x7ce4656481883a5eull},
      {0.90, 134, 4, 0xad1452b2a11ba8e1ull},
      {0.90, 134, 8, 0xad1452b2a11ba8e1ull},
      {0.90, 1, 2, 0xc06d52da2553098dull},
      {0.90, 1, 4, 0xc06d52da2553098dull},
      {0.90, 1, 8, 0xc06d52da2553098dull},
  };
  for (const RipupPin& pin : pins) {
    GenSpec spec;
    spec.cellsPerHeight = {500, 60, 20, 10};
    spec.density = pin.density;
    spec.numFences = 2;
    spec.seed = pin.seed;
    Design design = generate(spec);
    SegmentMap segments(design);
    PlacementState state(design);
    legalize(state, segments, PipelineConfig::contest());

    RipupConfig config;
    config.displacementThreshold = 2.0;
    config.passes = pin.passes;
    ripupRefine(state, segments, config);
    EXPECT_TRUE(checkLegality(design, segments).legal());
    EXPECT_EQ(placementHash(design), pin.hash)
        << "density " << pin.density << " seed " << pin.seed << " passes "
        << pin.passes;
  }
}

}  // namespace
}  // namespace mclg
