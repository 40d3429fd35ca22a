// Perf-overhaul equivalence tests (ctest label: perf).
//
// The hot-path work trades recomputation for cached / incremental state and
// reuses the network simplex's working arrays per thread; these tests pin
// down the contracts that make those optimizations quality-neutral:
//
//  1. The full pipeline is deterministic: repeated runs at the same thread
//     count produce bit-identical placements. Invariance across thread
//     counts is tested in test_executor.cpp
//     (ExecutorDeterminism.PlacementDoesNotDependOnThreadCount), and the
//     placements themselves are pinned by contract 3.
//  2. The network simplex's per-thread arena is invisible: a solve on a
//     thread that already solved other problems (optimal, unbounded,
//     unbalanced, larger) answers exactly as on a fresh thread.
//  3. MGL placements are pinned: guarded contest-preset runs on a dense and
//     a sparse fenced design reproduce recorded placement hashes, so a
//     hot-path rewrite that changes any cell's position fails here, and a
//     commit whose push chain hits a non-local cell leaves the placement
//     untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "flow/mcf.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/mgl/insertion.hpp"
#include "legal/pipeline.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace mclg {
namespace {

// ---------------------------------------------------------------------------
// 1. Pipeline output is invariant across thread counts.
// ---------------------------------------------------------------------------

std::vector<std::pair<std::int64_t, std::int64_t>> legalizedPositions(
    int threads) {
  GenSpec spec;
  spec.cellsPerHeight = {500, 70, 25, 12};
  spec.density = 0.6;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = 321;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.maxDisp.numThreads = threads;
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
  std::vector<std::pair<std::int64_t, std::int64_t>> positions;
  positions.reserve(static_cast<std::size_t>(design.numCells()));
  for (CellId c = 0; c < design.numCells(); ++c) {
    positions.emplace_back(design.cells[c].x, design.cells[c].y);
  }
  return positions;
}

TEST(PerfEquivalence, PipelinePlacementReproducibleAtEachThreadCount) {
  for (const int threads : {1, 2, 4}) {
    const auto first = legalizedPositions(threads);
    const auto second = legalizedPositions(threads);
    EXPECT_EQ(first, second) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// 2. Per-thread network-simplex arena.
// ---------------------------------------------------------------------------

McfProblem randomTransportProblem(Rng& rng, int sources, int sinks,
                                  CostValue costSpread) {
  McfProblem p;
  const int s0 = p.addNodes(sources);
  const int t0 = p.addNodes(sinks);
  FlowValue total = 0;
  for (int i = 0; i < sources; ++i) {
    const FlowValue s = rng.uniformInt(1, 9);
    p.addSupply(s0 + i, s);
    total += s;
  }
  for (int j = 0; j < sinks; ++j) {
    p.addSupply(t0 + j, -(total / sinks) -
                            ((j < total % sinks) ? 1 : 0));
  }
  for (int i = 0; i < sources; ++i) {
    for (int j = 0; j < sinks; ++j) {
      p.addArc(s0 + i, t0 + j, kInfiniteCap,
               rng.uniformInt(0, costSpread));
    }
  }
  return p;
}

/// Two nodes joined by opposite uncapacitated negative-cost arcs: a negative
/// cycle with no bound.
McfProblem unboundedProblem() {
  McfProblem p;
  p.addNodes(2);
  p.addArc(0, 1, kInfiniteCap, -1);
  p.addArc(1, 0, kInfiniteCap, -1);
  return p;
}

McfSolution solveOnFreshThread(const McfProblem& p) {
  McfSolution sol;
  std::thread([&] { sol = NetworkSimplex::solve(p); }).join();
  return sol;
}

TEST(SimplexArena, ReuseAcrossSolvesIsInvisible) {
  Rng rng(5);
  const McfProblem first = randomTransportProblem(rng, 10, 7, 30);
  McfProblem unbalanced = randomTransportProblem(rng, 6, 4, 20);
  unbalanced.addSupply(0, 1);
  const McfProblem larger = randomTransportProblem(rng, 40, 30, 60);
  const struct {
    McfProblem problem;
    McfStatus status;
  } sequence[] = {{first, McfStatus::Optimal},
                  {unboundedProblem(), McfStatus::Unbounded},
                  {unbalanced, McfStatus::Infeasible},
                  {larger, McfStatus::Optimal},
                  {first, McfStatus::Optimal}};
  for (int i = 0; i < 5; ++i) {
    const McfProblem& p = sequence[i].problem;
    const McfSolution reused = NetworkSimplex::solve(p);
    const McfSolution fresh = solveOnFreshThread(p);
    EXPECT_EQ(reused.status, sequence[i].status) << "solve " << i;
    EXPECT_EQ(reused.status, fresh.status) << "solve " << i;
    EXPECT_EQ(reused.flow, fresh.flow) << "solve " << i;
    EXPECT_EQ(reused.potential, fresh.potential) << "solve " << i;
    EXPECT_EQ(static_cast<double>(reused.totalCost),
              static_cast<double>(fresh.totalCost))
        << "solve " << i;
    if (reused.status == McfStatus::Optimal) {
      EXPECT_TRUE(verifyMcfOptimality(p, reused)) << "solve " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Pinned MGL placements.
// ---------------------------------------------------------------------------

std::uint64_t guardedContestHash(
    double density, std::array<int, 4> cellsPerHeight = {700, 90, 30, 15}) {
  GenSpec spec;
  spec.cellsPerHeight = cellsPerHeight;
  spec.density = density;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = 2;  // at density 0.90: 28 fallback cells, 687 expansions
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.guard.enabled = true;
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.mgl.failed, 0) << density;
  EXPECT_TRUE(checkLegality(design, segments).legal()) << density;
  return placementHash(design);
}

// Every row-4 insertion of the target needs the double-height cell D to
// move, and in row 5 D is wedged between two triple-height cells that leave
// the window; row 5 itself is full. Evaluation sees only row 4's chain and
// proposes candidates; every commit must fail on the row-5 push.
void expectFailedCommitLeavesPlacementUntouched() {
  using testing::addCell;
  Design d = testing::smallDesign();
  struct Spot {
    TypeId type;
    std::int64_t x, y;
  };
  const std::vector<Spot> spots = {
      {0, 11, 4},  // A
      {1, 13, 4},  // D: rows 4-5
      {0, 17, 4},  // B
      {2, 9, 5},   // left wall: rows 5-7, starts left of the window
      {2, 16, 5},  // right wall: rows 5-7, ends above the window
  };
  for (const Spot& s : spots) {
    addCell(d, s.type, static_cast<double>(s.x), static_cast<double>(s.y));
  }
  const CellId target = addCell(d, 0, 14.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  for (std::size_t i = 0; i < spots.size(); ++i) {
    state.place(static_cast<CellId>(i), spots[i].x, spots[i].y);
  }
  std::vector<RowOccupancy> rowsBefore;
  for (std::int64_t r = 0; r < d.numRows; ++r) {
    rowsBefore.push_back(state.rowCells(r));
  }
  std::vector<std::int64_t> xBefore;
  for (const auto& cell : d.cells) xBefore.push_back(cell.x);

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  InsertionConfig config;
  config.routability = false;
  InsertionSearcher searcher(state, segments, config);
  EXPECT_FALSE(searcher.tryInsert(target, Rect{10, 4, 19, 6}));
  const obs::MetricsSnapshot snap = obs::metricsSnapshot();
  obs::metricsReset();
  obs::setMetricsEnabled(false);
  // Candidates existed, and the push-reach test turned down every one of
  // them before any push was simulated: as a doomed seed, whose reach
  // interval misses its feasible interval, or as a reach reject of a
  // commit attempt.
  const auto candidates = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "mgl.window.candidates"; });
  ASSERT_NE(candidates, snap.histograms.end());
  EXPECT_GE(candidates->sum, 1.0);
  const long long evaluated =
      static_cast<long long>(candidates->sum) -
      snap.counterValue("mgl.insert.seed_dedup");
  EXPECT_GE(evaluated, 1);
  EXPECT_EQ(snap.counterValue("mgl.insert.doomed") +
                snap.counterValue("mgl.commit.reach_rejects"),
            evaluated);
  EXPECT_EQ(snap.counterValue("mgl.commit.reach_rejects"),
            snap.counterValue("mgl.commit.attempts"));
  EXPECT_EQ(snap.counterValue("mgl.commit.pushes"), 0);

  EXPECT_FALSE(d.cells[target].placed);
  for (std::int64_t r = 0; r < d.numRows; ++r) {
    EXPECT_EQ(state.rowCells(r), rowsBefore[static_cast<std::size_t>(r)])
        << "row " << r;
  }
  for (CellId c = 0; c < d.numCells(); ++c) {
    EXPECT_EQ(d.cells[c].x, xBefore[static_cast<std::size_t>(c)]) << c;
  }
}

TEST(PerfEquivalence, MglPlacementHashPinned) {
  // The first two were recorded before the MGL commit moved onto the
  // window row snapshots, the third before push reach replaced the
  // simulation of failing commits; any placement change anywhere in the
  // pipeline shows up here.
  EXPECT_EQ(guardedContestHash(0.90), 2985868059451056406ULL);
  EXPECT_EQ(guardedContestHash(0.55), 16341701802783861652ULL);
  // Dense and rich in 3- and 4-row cells, where chains cross rows most
  // (43 cells need the fallback).
  EXPECT_EQ(guardedContestHash(0.95, {500, 80, 60, 40}),
            15095610209893768910ULL);
  expectFailedCommitLeavesPlacementUntouched();
}

}  // namespace
}  // namespace mclg
