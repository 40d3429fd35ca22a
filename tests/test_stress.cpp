// Large-scale stress tests. The DISABLED_ tests run the published design
// sizes and take minutes — enable with --gtest_also_run_disabled_tests.
// The enabled test is a mid-size smoke that must stay within CI budgets.
#include <gtest/gtest.h>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/iccad17_suite.hpp"
#include "gen/ispd15_suite.hpp"
#include "legal/pipeline.hpp"
#include "util/timer.hpp"

namespace mclg {
namespace {

TEST(Stress, MidSizeContestDesign) {
  // ~12k cells at contest-like density with fences and routability.
  auto spec = iccad17Suite(0.10)[3].spec;  // des_perf_b_md1 style
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  Timer timer;
  PipelineConfig config = PipelineConfig::contest();
  config.maxDisp.numThreads = 4;
  const auto stats = legalize(state, segments, config);
  const double seconds = timer.seconds();
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
  EXPECT_EQ(countEdgeSpacingViolations(design), 0);
  EXPECT_LT(seconds, 120.0) << "mid-size run must stay CI-friendly";
}

TEST(Stress, DISABLED_FullScaleDesPerf1) {
  // The full 112k-cell des_perf_1 regeneration (Table 1's densest design).
  auto spec = iccad17Suite(1.0)[0].spec;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.maxDisp.numThreads = 8;
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Stress, DISABLED_FullScaleSuperblue19) {
  // 506k cells, Table 2 mode.
  auto spec = ispd15Suite(1.0)[19].spec;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::totalDisplacement();
  config.maxDisp.numThreads = 8;
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

}  // namespace
}  // namespace mclg
