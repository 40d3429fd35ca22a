// Full-flow tests (paper Fig. 2): legality on all suites' design styles,
// post-processing effects (Table 3 shape), and config presets.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "obs/obs.hpp"

namespace mclg {
namespace {

GenSpec contestSpec(std::uint64_t seed) {
  GenSpec spec;
  spec.cellsPerHeight = {600, 80, 30, 15};
  spec.density = 0.6;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = seed;
  return spec;
}

TEST(Pipeline, ContestPresetLegalizes) {
  Design design = generate(contestSpec(41));
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats = legalize(state, segments, PipelineConfig::contest());
  EXPECT_EQ(stats.mgl.failed, 0);
  const auto score = evaluateScore(design, segments);
  EXPECT_TRUE(score.legality.legal());
  EXPECT_EQ(score.edgeSpacing, 0);
  EXPECT_GT(score.score, 0.0);
}

TEST(Pipeline, TotalDisplacementPresetLegalizes) {
  GenSpec spec;
  spec.cellsPerHeight = {900, 100, 0, 0};
  spec.density = 0.5;
  spec.withRoutability = false;
  spec.withNets = false;
  spec.numEdgeClasses = 1;
  spec.seed = 42;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats =
      legalize(state, segments, PipelineConfig::totalDisplacement());
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Pipeline, PostProcessingImprovesTable3Shape) {
  // Run the same design with stages off and on; post-processing should cut
  // the maximum displacement substantially and the average slightly.
  Design base = generate(contestSpec(43));
  Design full = generate(contestSpec(43));

  PipelineConfig offConfig = PipelineConfig::contest();
  offConfig.runMaxDisp = false;
  offConfig.runFixedRowOrder = false;
  {
    SegmentMap segments(base);
    PlacementState state(base);
    legalize(state, segments, offConfig);
  }
  {
    SegmentMap segments(full);
    PlacementState state(full);
    legalize(state, segments, PipelineConfig::contest());
  }
  const auto statsOff = displacementStats(base);
  const auto statsOn = displacementStats(full);
  // The matching minimizes total φ, which *usually* reduces the maximum but
  // may trade a small single-cell increase for a large tail reduction —
  // hence the slack. The average must stay essentially unchanged (Table 3).
  EXPECT_LE(statsOn.maximum, statsOff.maximum * 1.2 + 1.0);
  EXPECT_LE(statsOn.average, statsOff.average + 0.05);
}

TEST(Pipeline, StagesPreserveLegality) {
  Design design = generate(contestSpec(44));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.runFixedRowOrder = false;  // stage 2 only
  legalize(state, segments, config);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Pipeline, HighDensityStillLegal) {
  GenSpec spec = contestSpec(46);
  spec.density = 0.88;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats = legalize(state, segments, PipelineConfig::contest());
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Pipeline, ExtensionStagesRunWhenEnabled) {
  Design design = generate(contestSpec(48));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.runRipup = true;
  config.ripup.displacementThreshold = 3.0;
  config.runWirelengthRecovery = true;
  config.recovery.maxAddedDisplacement = 1.0;
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_GT(stats.ripup.attempted, 0);
  EXPECT_LE(stats.recovery.hpwlAfter, stats.recovery.hpwlBefore + 1e-9);
  EXPECT_TRUE(checkLegality(design, segments).legal());
  EXPECT_GE(stats.secondsTotal(),
            stats.secondsRipup + stats.secondsRecovery);
}

TEST(Pipeline, TimingsPopulated) {
  Design design = generate(contestSpec(47));
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats = legalize(state, segments, PipelineConfig::contest());
  EXPECT_GT(stats.secondsMgl, 0.0);
  EXPECT_GE(stats.secondsTotal(), stats.secondsMgl);
}

// A parallel stage's CPU is spent on its worker threads. Each of two
// threads spins until its own CPU clock passes 30 ms, so the stage's CPU
// reaches 60 ms however loaded the host is, while the timing thread itself
// only waits.
TEST(Pipeline, StageCpuSecondsCountsWorkerThreads) {
  obs::setMetricsEnabled(true);
  obs::metricsReset();
  {
    const StageClock timer;
    std::vector<std::thread> workers;
    for (int i = 0; i < 2; ++i) {
      workers.emplace_back([] {
        const double start = Timer::threadCpuSeconds();
        while (Timer::threadCpuSeconds() - start < 0.03) {
        }
      });
    }
    for (auto& worker : workers) worker.join();
    timer.record(PipelineStage::MaxDisp);
  }
  const obs::MetricsSnapshot snap = obs::metricsSnapshot();
  obs::metricsReset();
  obs::setMetricsEnabled(false);
  double cpu = -1.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "stage.maxdisp.cpu_seconds") cpu = value;
  }
  EXPECT_GE(cpu, 0.06);
}

}  // namespace
}  // namespace mclg
