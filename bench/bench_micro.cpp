// Google-benchmark microbenchmarks for the performance-critical kernels:
// the two MCF solvers, the curve-sum minimization, sparse assignment, and
// the fixed-row-&-order network build+solve.

#include <benchmark/benchmark.h>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "flow/bipartite_matching.hpp"
#include "flow/hungarian.hpp"
#include "flow/mcf.hpp"
#include "gen/benchmark_gen.hpp"
#include "geometry/disp_curve.hpp"
#include "legal/mcfopt/fixed_row_order.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "util/random.hpp"

namespace {

mclg::McfProblem randomTransportProblem(int producers, int consumers,
                                        std::uint64_t seed) {
  mclg::Rng rng(seed);
  mclg::McfProblem p;
  p.addNodes(producers + consumers);
  for (int i = 0; i < producers; ++i) {
    const auto supply = rng.uniformInt(1, 10);
    p.addSupply(i, supply);
    p.addSupply(producers + static_cast<int>(rng.uniformInt(0, consumers - 1)),
                -supply);
  }
  for (int i = 0; i < producers; ++i) {
    for (int j = 0; j < consumers; ++j) {
      if (rng.chance(0.3)) {
        p.addArc(i, producers + j, rng.uniformInt(5, 30),
                 rng.uniformInt(1, 100));
      }
    }
    p.addArc(i, producers + static_cast<int>(rng.uniformInt(0, consumers - 1)),
             mclg::kInfiniteCap, 500);  // feasibility backstop
  }
  return p;
}

void BM_NetworkSimplex(benchmark::State& state) {
  const auto p = randomTransportProblem(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mclg::NetworkSimplex::solve(p));
  }
}
BENCHMARK(BM_NetworkSimplex)->Arg(50)->Arg(200)->Arg(800);

void BM_SspSolver(benchmark::State& state) {
  const auto p = randomTransportProblem(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mclg::SspSolver::solve(p));
  }
}
BENCHMARK(BM_SspSolver)->Arg(50)->Arg(200);

// The network-simplex-vs-cost-scaling comparison of Király & Kovács (the
// paper's MCF solver reference), on our instances.
void BM_CostScaling(benchmark::State& state) {
  const auto p = randomTransportProblem(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mclg::CostScalingSolver::solve(p));
  }
}
BENCHMARK(BM_CostScaling)->Arg(50)->Arg(200);

void BM_CurveSumMinimize(benchmark::State& state) {
  mclg::Rng rng(11);
  mclg::CurveSum sum;
  for (int i = 0; i < state.range(0); ++i) {
    sum.add(mclg::DispCurve::rightPush(rng.uniformReal(0, 100),
                                       rng.uniformReal(0, 100),
                                       rng.uniformReal(1, 10)));
    sum.add(mclg::DispCurve::leftPush(rng.uniformReal(0, 100),
                                      rng.uniformReal(0, 100),
                                      rng.uniformReal(1, 10)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum.minimizeOnSites(0, 100));
  }
}
BENCHMARK(BM_CurveSumMinimize)->Arg(8)->Arg(32)->Arg(128);

void BM_DenseAssignmentHungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mclg::Rng rng(13);
  std::vector<mclg::CostValue> cost(static_cast<std::size_t>(n) * n);
  for (auto& c : cost) c = rng.uniformInt(0, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mclg::solveAssignmentDense(n, n, cost));
  }
}
BENCHMARK(BM_DenseAssignmentHungarian)->Arg(100)->Arg(400);

void BM_DenseAssignmentViaMcf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mclg::Rng rng(13);
  std::vector<mclg::AssignmentEdge> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      edges.push_back({i, j, rng.uniformInt(0, 1000)});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mclg::solveAssignment(n, n, edges));
  }
}
BENCHMARK(BM_DenseAssignmentViaMcf)->Arg(100)->Arg(400);

void BM_SparseAssignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mclg::Rng rng(13);
  std::vector<mclg::AssignmentEdge> edges;
  for (int i = 0; i < n; ++i) {
    edges.push_back({i, i, rng.uniformInt(0, 100)});  // identity backstop
    for (int k = 0; k < 8; ++k) {
      edges.push_back({i, static_cast<int>(rng.uniformInt(0, n - 1)),
                       rng.uniformInt(0, 1000)});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mclg::solveAssignment(n, n, edges));
  }
}
BENCHMARK(BM_SparseAssignment)->Arg(100)->Arg(400);

void BM_MglLegalize(benchmark::State& state) {
  mclg::GenSpec spec;
  const int cells = static_cast<int>(state.range(0));
  spec.cellsPerHeight = {cells * 8 / 10, cells / 10, cells / 20, cells / 20};
  spec.density = 0.6;
  spec.seed = 17;
  for (auto _ : state) {
    state.PauseTiming();
    mclg::Design design = mclg::generate(spec);
    mclg::SegmentMap segments(design);
    mclg::PlacementState placement(design);
    state.ResumeTiming();
    mclg::MglLegalizer legalizer(placement, segments, {});
    benchmark::DoNotOptimize(legalizer.run());
  }
}
BENCHMARK(BM_MglLegalize)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_FixedRowOrder(benchmark::State& state) {
  mclg::GenSpec spec;
  const int cells = static_cast<int>(state.range(0));
  spec.cellsPerHeight = {cells * 9 / 10, cells / 10, 0, 0};
  spec.density = 0.6;
  spec.seed = 19;
  mclg::Design design = mclg::generate(spec);
  mclg::SegmentMap segments(design);
  mclg::PlacementState placement(design);
  mclg::MglLegalizer legalizer(placement, segments, {});
  legalizer.run();
  const std::string snapshot = [&] {
    // capture positions to restore between iterations
    std::string s;
    for (const auto& cell : design.cells) {
      s += std::to_string(cell.x) + "," + std::to_string(cell.y) + ";";
    }
    return s;
  }();
  (void)snapshot;
  mclg::FixedRowOrderConfig config;
  config.contestWeights = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mclg::optimizeFixedRowOrder(placement, segments, config));
  }
}
BENCHMARK(BM_FixedRowOrder)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
