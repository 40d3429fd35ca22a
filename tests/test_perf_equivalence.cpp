// Perf-overhaul equivalence tests (ctest label: perf).
//
// The hot-path work trades recomputation for cached / incremental state and
// adds a warm-startable network simplex; these tests pin down the contracts
// that make those optimizations quality-neutral:
//
//  1. IncrementalCurveSum add/remove is *exactly* equivalent — breakpoints,
//     slopes, minimizer — to a from-scratch rebuild, on curve populations
//     drawn from randomized windows of a generated design.
//  2. The full pipeline is deterministic: repeated runs at the same thread
//     count produce bit-identical placements (the promise the perf gate's
//     hash comparison against the baseline relies on). Invariance across
//     thread counts is tested in test_executor.cpp.
//  3. A warm network-simplex solve reaches the same optimal objective as a
//     cold solve and passes independent optimality verification; warm
//     validation rejects changed topology and still answers correctly.
//  4. MGL placements are pinned: guarded contest-preset runs on a dense and
//     a sparse fenced design reproduce recorded placement hashes, so a
//     hot-path rewrite that changes any cell's position fails here, and a
//     commit whose push chain hits a non-local cell leaves the placement
//     untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "flow/mcf.hpp"
#include "gen/benchmark_gen.hpp"
#include "geometry/disp_curve.hpp"
#include "legal/mgl/insertion.hpp"
#include "legal/pipeline.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace mclg {
namespace {

// ---------------------------------------------------------------------------
// 1. Incremental curve arithmetic == from-scratch rebuild.
// ---------------------------------------------------------------------------

void expectPiecewiseIdentical(const IncrementalCurveSum::Piecewise& a,
                              const IncrementalCurveSum::Piecewise& b) {
  ASSERT_EQ(a.breakpoints.size(), b.breakpoints.size());
  ASSERT_EQ(a.slopes.size(), b.slopes.size());
  for (std::size_t i = 0; i < a.breakpoints.size(); ++i) {
    EXPECT_EQ(a.breakpoints[i], b.breakpoints[i]) << "breakpoint " << i;
  }
  for (std::size_t i = 0; i < a.slopes.size(); ++i) {
    EXPECT_EQ(a.slopes[i], b.slopes[i]) << "slope " << i;
  }
  EXPECT_EQ(a.anchorValue, b.anchorValue);
}

TEST(CurveDelta, IncrementalEqualsRebuildOnGeneratedWindows) {
  GenSpec spec;
  spec.cellsPerHeight = {400, 60, 20, 10};
  spec.density = 0.55;
  spec.withRoutability = false;
  spec.withNets = false;
  spec.seed = 7;
  const Design design = generate(spec);
  Rng rng(0xC0FFEEULL);

  for (int window = 0; window < 40; ++window) {
    // A random window of cells: curves modelled as in evaluateSeed — one
    // left/right push per cell with cumulative offsets from a random seed
    // position, plus the target's V curve.
    const int count = static_cast<int>(rng.uniformInt(3, 24));
    const auto first = rng.uniformInt(0, design.numCells() - count - 1);
    const double seedX = rng.uniformReal(0.0, 400.0);

    std::map<std::int64_t, DispCurve> pool;
    pool.emplace(-1, DispCurve::targetV(seedX).scaled(rng.uniformReal(0.5, 4.0)));
    double offLeft = 0.0;
    double offRight = 8.0;
    for (int k = 0; k < count; ++k) {
      const auto& cell = design.cells[first + k];
      const double gp = cell.gpX;
      const double cur = std::floor(gp) + static_cast<double>(rng.uniformInt(-6, 6));
      const double width = static_cast<double>(design.typeOf(first + k).width);
      const double scale = design.siteWidthFactor * rng.uniformReal(0.5, 4.0);
      if (rng.uniform01() < 0.5) {
        offLeft += width;
        pool.emplace(first + k, DispCurve::leftPush(cur, gp, offLeft).scaled(scale));
      } else {
        pool.emplace(first + k, DispCurve::rightPush(cur, gp, offRight).scaled(scale));
        offRight += width;
      }
    }

    // Random interleaving of adds and removes; after every mutation the
    // aggregate must be bit-identical to one rebuilt from the live members.
    IncrementalCurveSum inc;
    std::map<std::int64_t, DispCurve> live;
    std::vector<std::int64_t> ids;
    for (const auto& [id, curve] : pool) ids.push_back(id);
    for (int step = 0; step < 3 * count; ++step) {
      const auto id = ids[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
      if (live.count(id)) {
        EXPECT_TRUE(inc.remove(id));
        live.erase(id);
      } else {
        inc.add(id, pool.at(id));
        live.emplace(id, pool.at(id));
      }

      IncrementalCurveSum rebuilt;
      CurveSum reference;
      for (const auto& [lid, curve] : live) {
        rebuilt.add(lid, curve);
        reference.add(curve);
      }
      expectPiecewiseIdentical(inc.piecewise(), rebuilt.piecewise());

      const std::int64_t lo = rng.uniformInt(-50, 200);
      const std::int64_t hi = lo + rng.uniformInt(0, 300);
      const auto a = inc.minimizeOnSites(lo, hi);
      const auto b = rebuilt.minimizeOnSites(lo, hi);
      ASSERT_EQ(a.feasible, b.feasible);
      if (a.feasible && !live.empty()) {
        EXPECT_EQ(a.x, b.x);
        EXPECT_EQ(a.value, b.value);
        // And against the non-incremental CurveSum (independent event
        // ordering, so only value-level agreement is guaranteed).
        const auto c = reference.minimizeOnSites(lo, hi);
        ASSERT_TRUE(c.feasible);
        EXPECT_NEAR(a.value, c.value, 1e-9 * (1.0 + std::abs(c.value)));
        const double probe = static_cast<double>(rng.uniformInt(lo, hi));
        EXPECT_NEAR(inc.value(probe), reference.value(probe),
                    1e-9 * (1.0 + std::abs(reference.value(probe))));
      }
    }
  }
}

TEST(CurveDelta, RemoveRestoresEmptyState) {
  IncrementalCurveSum inc;
  inc.add(1, DispCurve::targetV(3.5));
  inc.add(2, DispCurve::rightPush(10.0, 12.0, 4.0));
  EXPECT_TRUE(inc.remove(1));
  EXPECT_TRUE(inc.remove(2));
  EXPECT_FALSE(inc.remove(2));
  EXPECT_EQ(inc.size(), 0u);
  const auto pw = inc.piecewise();
  EXPECT_TRUE(pw.breakpoints.empty());
  ASSERT_EQ(pw.slopes.size(), 1u);
  EXPECT_EQ(pw.slopes[0], 0.0);
}

// ---------------------------------------------------------------------------
// 2. Pipeline output is invariant across thread counts.
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
  config.fixedRowOrder.numThreads = threads;
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
// 3. Warm-started network simplex.
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

TEST(WarmStart, SameOptimumAsColdAcrossCostPerturbations) {
  Rng rng(99);
  McfProblem p = randomTransportProblem(rng, 12, 9, 40);
  NetworkSimplexSolver solver;
  const auto cold0 = solver.solve(p);
  ASSERT_EQ(cold0.status, McfStatus::Optimal);
  EXPECT_TRUE(verifyMcfOptimality(p, cold0));

  for (int round = 0; round < 8; ++round) {
    // Same topology, new costs: the warm path's intended use (ablation
    // sweeps re-solving with perturbed objectives).
    McfProblem q;
    for (int i = 0; i < p.numNodes(); ++i) q.addNode();
    for (int i = 0; i < p.numNodes(); ++i) q.addSupply(i, p.supply(i));
    for (int a = 0; a < p.numArcs(); ++a) {
      const auto& arc = p.arc(a);
      q.addArc(arc.src, arc.dst, arc.cap,
               arc.cost + rng.uniformInt(-3, 3));
    }
    const auto warm = solver.solveWarm(q);
    ASSERT_EQ(warm.status, McfStatus::Optimal);
    EXPECT_TRUE(verifyMcfOptimality(q, warm));
    const auto cold = NetworkSimplex::solve(q);
    ASSERT_EQ(cold.status, McfStatus::Optimal);
    EXPECT_EQ(static_cast<double>(warm.totalCost),
              static_cast<double>(cold.totalCost));
    p = std::move(q);
  }
  EXPECT_GT(solver.stats().warmSolves, 0);
  EXPECT_EQ(solver.stats().warmRejected, 0);
  // Warm restarts must pivot strictly less than solving every instance
  // cold would (that is the point).
  if (solver.stats().warmSolves >= 8) {
    EXPECT_LT(solver.stats().warmPivots / solver.stats().warmSolves,
              1 + solver.stats().coldPivots);
  }
}

TEST(WarmStart, RejectsChangedTopologyAndStillAnswers) {
  Rng rng(123);
  const McfProblem p = randomTransportProblem(rng, 8, 6, 25);
  NetworkSimplexSolver solver;
  ASSERT_EQ(solver.solve(p).status, McfStatus::Optimal);

  // Different arc count -> warm validation must fall back to cold.
  McfProblem q = p;
  q.addArc(0, p.numNodes() - 1, 5, 1);
  const auto sol = solver.solveWarm(q);
  ASSERT_EQ(sol.status, McfStatus::Optimal);
  EXPECT_TRUE(verifyMcfOptimality(q, sol));
  EXPECT_GE(solver.stats().warmRejected, 1);
  const auto cold = NetworkSimplex::solve(q);
  EXPECT_EQ(static_cast<double>(sol.totalCost),
            static_cast<double>(cold.totalCost));
}

TEST(WarmStart, ColdPathBitIdenticalToStaticEntryPoint) {
  Rng rng(5);
  const McfProblem p = randomTransportProblem(rng, 10, 7, 30);
  NetworkSimplexSolver solver;
  const auto a = solver.solve(p);
  const auto b = NetworkSimplex::solve(p);
  ASSERT_EQ(a.status, McfStatus::Optimal);
  ASSERT_EQ(b.status, McfStatus::Optimal);
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.potential, b.potential);
  EXPECT_EQ(static_cast<double>(a.totalCost), static_cast<double>(b.totalCost));
}

// ---------------------------------------------------------------------------
// 4. Pinned MGL placements.
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
  std::vector<std::map<std::int64_t, CellId>> rowsBefore;
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
  // Candidates existed, so at least one commit was attempted; the push
  // reach rejected every attempt before any push was simulated.
  const auto candidates = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "mgl.window.candidates"; });
  ASSERT_NE(candidates, snap.histograms.end());
  EXPECT_GE(candidates->sum, 1.0);
  EXPECT_GE(snap.counterValue("mgl.commit.attempts"), 1);
  EXPECT_EQ(snap.counterValue("mgl.commit.pushes"), 0);
  EXPECT_EQ(snap.counterValue("mgl.commit.reach_rejects"),
            snap.counterValue("mgl.commit.attempts"));

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
