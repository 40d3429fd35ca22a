// Executor suite (`ctest -L executor`): FunctionRef and
// Executor primitives, and the determinism claims: every lane count, odd
// ones (3, 7) and oversubscription (more lanes than hardware cores)
// included, must produce byte-identical placements, whether a design runs
// alone or concurrently with others on one shared executor. Doubles as the
// race stress test for sanitizer runs (the tsan and asan-ubsan presets).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "flow/batch_runner.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/guard/invariants.hpp"
#include "legal/pipeline.hpp"
#include "test_helpers.hpp"
#include "util/executor/executor.hpp"
#include "util/executor/function_ref.hpp"

namespace mclg {
namespace {

GenSpec spec(std::uint64_t seed, double density = 0.6) {
  GenSpec s;
  s.cellsPerHeight = {350, 45, 15, 8};
  s.density = density;
  s.numFences = 2;
  s.seed = seed;
  return s;
}

TEST(FunctionRef, InvokesTheReferencedCallable) {
  int calls = 0;
  auto lambda = [&calls](int delta) { calls += delta; };
  FunctionRef<void(int)> ref = lambda;
  ref(2);
  ref(3);
  EXPECT_EQ(calls, 5);
}

TEST(FunctionRef, ForwardsReturnValues) {
  auto doubler = [](int v) { return 2 * v; };
  FunctionRef<int(int)> ref = doubler;
  EXPECT_EQ(ref(21), 42);
}

TEST(Executor, RunsAllIndicesExactlyOnce) {
  Executor executor(4);
  std::vector<std::atomic<int>> counts(1000);
  executor.parallelForBatch(1000, 8,
                            [&](int i) { counts[i].fetch_add(1); });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(Executor, InlineWhenMaxParallelOne) {
  Executor executor(4);
  // Non-atomic accumulation: only correct if fn runs inline on this thread.
  long long sum = 0;
  executor.parallelForBatch(100, 1, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(Executor, ZeroCountIsNoop) {
  Executor executor(2);
  executor.parallelForBatch(0, 4, [](int) { FAIL(); });
  executor.parallelForBatch(-3, 4, [](int) { FAIL(); });
}

TEST(Executor, ExceptionDrainsBatchAndRethrows) {
  Executor executor(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      executor.parallelForBatch(64, 4,
                                [&](int i) {
                                  executed.fetch_add(1);
                                  if (i == 5) throw std::runtime_error("boom");
                                }),
      std::runtime_error);
  // Drain semantics: every index still ran despite the failure.
  EXPECT_EQ(executed.load(), 64);
}

TEST(Executor, NestedBatchesComplete) {
  // A batch task opening its own batch must not deadlock even when every
  // worker is already busy — the caller participates in its own batch.
  Executor executor(3);
  std::atomic<int> inner{0};
  executor.parallelForBatch(4, 4, [&](int) {
    executor.parallelForBatch(50, 4, [&](int) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 200);
}

TEST(Executor, StatsCountActivity) {
  Executor executor(4);
  executor.parallelForBatch(512, 4, [](int) {});
  const Executor::Stats stats = executor.stats();
  EXPECT_GE(stats.batches, 1);
  EXPECT_GE(stats.chunkGrabs, 1);
}

TEST(Executor, StressConcurrentBatchesFromManyThreads) {
  // Race stress, also run under the tsan preset: several external threads
  // hammer one executor with overlapping batches; every batch must count
  // exactly.
  Executor executor(4);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        std::atomic<int> count{0};
        executor.parallelForBatch(64, 4,
                                  [&](int) { count.fetch_add(1); });
        if (count.load() != 64) failed.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
}

// ---- Determinism: solo mode ------------------------------------------------

struct GuardedRun {
  std::uint64_t hash = 0;
  bool legal = false;
  int unplaced = 0;
};

GuardedRun runGuarded(Design& design, int threads,
                      PipelineConfig config = PipelineConfig::contest()) {
  const SegmentMap segments(design);
  PlacementState state(design);
  config.guard.enabled = true;
  config.setThreads(threads);
  legalize(state, segments, config);
  return {placementHash(design), checkLegality(design, segments).legal(),
          countUnplacedMovable(design)};
}

TEST(ExecutorDeterminism, PlacementDoesNotDependOnThreadCount) {
  // MGL and the §3.3 MCF are serial and §3.2 merges its parallel results in
  // a fixed order, so the guarded pipeline's placement is byte-identical at
  // every thread count: odd ones and more lanes than hardware cores
  // included.
  const int oversubscribed =
      2 * static_cast<int>(std::thread::hardware_concurrency()) + 5;
  const auto expectSameAtEveryThreadCount =
      [oversubscribed](const GenSpec& s, const PipelineConfig& config,
                       const std::string& what) {
        Design reference = generate(s);
        const GuardedRun expected = runGuarded(reference, 1, config);
        EXPECT_TRUE(expected.legal) << what;
        EXPECT_EQ(expected.unplaced, 0) << what;
        for (const int threads : {2, 3, 4, 7, oversubscribed}) {
          Design design = generate(s);
          EXPECT_EQ(runGuarded(design, threads, config).hash, expected.hash)
              << what << " threads " << threads;
        }
      };
  for (const double density : {0.6, 0.9}) {
    expectSameAtEveryThreadCount(spec(502, density), PipelineConfig::contest(),
                                 "contest density " + std::to_string(density));
  }
  // The total-displacement preset turns the §3.3.1 coupling term off
  // (n0 = 0), so the §3.3 network falls apart into independent components.
  // On this design, solving them one by one breaks cost ties differently
  // from the one solve over every cell and moves 8 cells.
  GenSpec totaldisp;
  totaldisp.cellsPerHeight = {600, 10, 2, 0};
  totaldisp.density = 0.5;
  totaldisp.numFences = 2;
  totaldisp.seed = 1;
  expectSameAtEveryThreadCount(totaldisp, PipelineConfig::totalDisplacement(),
                               "totaldisp");
}

std::uint64_t legalizeHash(Design& design, int threads) {
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.setThreads(threads);
  legalize(state, segments, config);
  return placementHash(design);
}

// ---- Determinism: concurrent designs ---------------------------------------

TEST(ExecutorDeterminism, BatchResultsMatchSoloRunsAtSameThreadCount) {
  // Designs legalizing concurrently from plain threads that share one
  // executor (the way mclg_serve's connection threads run their tenants'
  // requests) must each be byte-identical to a solo run of the same design
  // at the same lane count: with serial designs (1 lane each) and with
  // stage-parallel designs (3 lanes each) whose batches compete for the
  // same workers.
  constexpr int kDesigns = 4;
  for (const int lanes : {1, 3}) {
    std::vector<std::uint64_t> solo;
    for (int d = 0; d < kDesigns; ++d) {
      Design design = generate(spec(600 + static_cast<std::uint64_t>(d)));
      solo.push_back(legalizeHash(design, lanes));
    }
    for (const int workers : {2, 4}) {
      Executor executor(workers);
      std::vector<Design> designs;
      designs.reserve(kDesigns);
      for (int d = 0; d < kDesigns; ++d) {
        designs.push_back(generate(spec(600 + static_cast<std::uint64_t>(d))));
      }
      std::vector<std::uint64_t> hashes(kDesigns, 0);
      std::vector<std::thread> threads;
      for (int d = 0; d < kDesigns; ++d) {
        threads.emplace_back([&, d] {
          Design& design = designs[static_cast<std::size_t>(d)];
          try {
            SegmentMap segments(design);
            PlacementState state(design);
            PipelineConfig config = PipelineConfig::contest();
            config.setThreads(lanes);
            config.executor = ExecutorRef(&executor);
            legalize(state, segments, config);
            hashes[static_cast<std::size_t>(d)] = placementHash(design);
          } catch (...) {
            // Hash stays 0 and fails the comparison below.
          }
        });
      }
      for (auto& thread : threads) thread.join();
      for (int d = 0; d < kDesigns; ++d) {
        EXPECT_EQ(hashes[static_cast<std::size_t>(d)],
                  solo[static_cast<std::size_t>(d)])
            << "workers " << workers << " lanes " << lanes << " design " << d;
      }
    }
  }
}

TEST(BatchRunner, ManifestParsing) {
  const std::string dir = testing::uniqueTestDir();
  const std::string path = dir + "/manifest.txt";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("# comment line\n"
             "designs/a.mclg out/a.mclg\n"
             "\n"
             "b.mclg   # trailing comment\n",
             file);
  std::fclose(file);

  std::vector<BatchManifestItem> items;
  std::string error;
  ASSERT_TRUE(loadBatchManifest(path, &items, &error)) << error;
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].name, "a");
  EXPECT_EQ(items[0].inputPath, "designs/a.mclg");
  EXPECT_EQ(items[0].outputPath, "out/a.mclg");
  EXPECT_EQ(items[1].name, "b");
  EXPECT_EQ(items[1].outputPath, "");

  std::FILE* badFile = std::fopen(path.c_str(), "w");
  ASSERT_NE(badFile, nullptr);
  std::fputs("a.mclg b.mclg c.mclg\n", badFile);
  std::fclose(badFile);
  items.clear();
  EXPECT_FALSE(loadBatchManifest(path, &items, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace mclg
