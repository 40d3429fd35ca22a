// Quality pins (ctest label: quality).
//
// The fast subset of the density sweep: `mclg_cli generate`-style designs
// (2,000 cells, 2 fences, 1 blockage, clustered GP) at densities 0.55,
// 0.75, 0.85 and 0.90 with generator seeds 1 and 2, legalized the way
// `mclg_cli legalize` does (contest preset, guard on, one thread). Each
// design's placement hash and score are pinned, so a change that moves any
// cell fails here and has to update the pins on purpose. One test per
// design, so ctest runs them in parallel.
//
// The lazy-path pins run two of these designs with a small
// `mgl.commit_attempts`, so that the insertion search's row early-break,
// its reject cap and its seen-set each meet doomed seeds (seeds that can
// never commit, whose curves are built only when a decision needs their
// cost). Each also checks that some doomed seed needed its exact cost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

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

struct QualityPin {
  double density;
  std::uint64_t seed;
  std::uint64_t hash;
  double score;
};

// `mclg_cli generate --cells 2000 --density D --fences 2 --seed S`.
Design generateLikeCli(double density, std::uint64_t seed) {
  constexpr int kCells = 2000;
  GenSpec spec;
  spec.cellsPerHeight = {kCells * 8 / 10, kCells * 12 / 100, kCells * 5 / 100,
                         kCells * 3 / 100};
  spec.density = density;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = seed;
  return generate(spec);
}

class QualityPins : public ::testing::TestWithParam<QualityPin> {};

TEST_P(QualityPins, PlacementHashAndScore) {
  const QualityPin& pin = GetParam();
  Design design = generateLikeCli(pin.density, pin.seed);
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.guard.enabled = true;
  const PipelineStats stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
  EXPECT_EQ(placementHash(design), pin.hash);
  EXPECT_DOUBLE_EQ(evaluateScore(design, segments).score, pin.score);
}

// Recorded before the MGL inner loop moved onto flat occupancy rows.
INSTANTIATE_TEST_SUITE_P(
    Sweep2k, QualityPins,
    ::testing::Values(
        QualityPin{0.55, 1, 4461028987069678360ULL, 3.7809109858146863},
        QualityPin{0.55, 2, 8310434363334671125ULL, 3.2651086716577149},
        QualityPin{0.75, 1, 9203194804847776315ULL, 14.137965573050161},
        QualityPin{0.75, 2, 9914576784569190438ULL, 12.63424131792031},
        QualityPin{0.85, 1, 10124437536748620294ULL, 20.833626774495617},
        QualityPin{0.85, 2, 12087802742037713675ULL, 28.180608396397734},
        QualityPin{0.90, 1, 6064781943061039462ULL, 36.153477947687996},
        QualityPin{0.90, 2, 1099900979144167568ULL, 61.314512100851012}),
    [](const ::testing::TestParamInfo<QualityPin>& info) {
      return "d" + std::to_string(std::lround(info.param.density * 100)) +
             "_seed" + std::to_string(info.param.seed);
    });

struct LazyPathPin {
  double density;
  std::uint64_t seed;
  int commitAttempts;  // mgl.commit_attempts
  std::uint64_t hash;
  double score;
};

class LazyPathPins : public ::testing::TestWithParam<LazyPathPin> {};

TEST_P(LazyPathPins, PlacementHashAndScore) {
  const LazyPathPin& pin = GetParam();
  Design design = generateLikeCli(pin.density, pin.seed);
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.guard.enabled = true;
  config.mgl.insertion.maxCommitAttempts = pin.commitAttempts;
  obs::setMetricsEnabled(true);
  obs::metricsReset();
  const PipelineStats stats = legalize(state, segments, config);
  const obs::MetricsSnapshot metrics = obs::metricsSnapshot();
  obs::metricsReset();
  obs::setMetricsEnabled(false);
  EXPECT_GT(metrics.counterValue("mgl.insert.doomed_evaluated"), 0);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
  EXPECT_EQ(placementHash(design), pin.hash);
  EXPECT_DOUBLE_EQ(evaluateScore(design, segments).score, pin.score);
}

// Recorded before doomed seeds skipped their curves.
INSTANTIATE_TEST_SUITE_P(
    SmallCommitCap, LazyPathPins,
    ::testing::Values(LazyPathPin{0.75, 2, 16, 4349437106239431585ULL,
                                  14.044748447271539},
                      LazyPathPin{0.90, 1, 4, 5088112445890828979ULL,
                                  34.716735548342776}),
    [](const ::testing::TestParamInfo<LazyPathPin>& info) {
      return "d" + std::to_string(std::lround(info.param.density * 100)) +
             "_seed" + std::to_string(info.param.seed) + "_attempts" +
             std::to_string(info.param.commitAttempts);
    });

}  // namespace
}  // namespace mclg
