// Minimum-cost flow problem container shared by both solvers.
//
// The paper solves two different MCFs (the bipartite matching of §3.2 and
// the dual of the fixed-row-&-order LP in §3.3) with LEMON's network
// simplex. We ship our own network simplex with the same first-eligible
// pivot rule, plus an independent successive-shortest-path solver used to
// cross-validate it in tests.
//
// Conventions:
//  - arcs have lower bound 0, integer capacity and integer cost (callers
//    scale fractional data; see legal/mcfopt);
//  - supply(v) > 0 means v is a source; supplies must sum to zero;
//  - negative arc costs are allowed (the dual MCF has them).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace mclg {

using FlowValue = std::int64_t;
using CostValue = std::int64_t;

/// Capacity treated as "uncapacitated".
inline constexpr FlowValue kInfiniteCap =
    std::numeric_limits<FlowValue>::max() / 4;

class McfProblem {
 public:
  struct Arc {
    int src = 0;
    int dst = 0;
    FlowValue cap = 0;
    CostValue cost = 0;
  };

  int addNode() {
    supply_.push_back(0);
    return static_cast<int>(supply_.size()) - 1;
  }

  int addNodes(int count) {
    const int first = static_cast<int>(supply_.size());
    supply_.resize(supply_.size() + static_cast<std::size_t>(count), 0);
    return first;
  }

  /// Returns the arc id. Arcs with zero capacity are legal (and useless).
  int addArc(int src, int dst, FlowValue cap, CostValue cost);

  void addSupply(int node, FlowValue s) { supply_[node] += s; }

  /// Drop all nodes, arcs, and supplies but keep the allocated capacity —
  /// for callers that build many problems of similar size in a loop.
  void clear() {
    arcs_.clear();
    supply_.clear();
  }

  int numNodes() const { return static_cast<int>(supply_.size()); }
  int numArcs() const { return static_cast<int>(arcs_.size()); }
  const Arc& arc(int a) const { return arcs_[a]; }
  FlowValue supply(int node) const { return supply_[node]; }
  const std::vector<Arc>& arcs() const { return arcs_; }
  const std::vector<FlowValue>& supplies() const { return supply_; }

 private:
  std::vector<Arc> arcs_;
  std::vector<FlowValue> supply_;
};

enum class McfStatus { Optimal, Infeasible, Unbounded };

struct McfSolution {
  McfStatus status = McfStatus::Infeasible;
  /// Exact total cost of the returned flow (sum of flow*cost over arcs).
  /// Stored as long double because cost*cap products can exceed int64.
  long double totalCost = 0.0L;
  std::vector<FlowValue> flow;       // per arc
  std::vector<CostValue> potential;  // per node (dual values)

  /// Recompute the objective from the flow vector (used by tests).
  static long double costOf(const McfProblem& problem,
                            const std::vector<FlowValue>& flow);
};

/// Network simplex with the first-eligible (round-robin) pivot rule.
///
/// The static entry point keeps one solver instance per thread, so repeated
/// solves (the per-chunk matchings of §3.2, the per-component duals of §3.3)
/// reuse the internal arenas instead of reallocating them per problem.
class NetworkSimplex {
 public:
  static McfSolution solve(const McfProblem& problem);
};

/// A network simplex instance whose working arrays persist across solves.
///
/// `solve` is a cold solve from the artificial-root basis — bit-identical to
/// `NetworkSimplex::solve` (same pivot sequence, same optimal vertex), just
/// without the per-call allocations.
///
/// `solveWarm` restarts from the basis retained by the previous successful
/// solve on this instance. It requires the identical network topology
/// (node/arc counts, per-arc endpoints and capacities) and supplies; only
/// arc costs may differ. The retained tree/flow basis stays primal feasible
/// and strongly feasible under a pure cost change, so only the potentials
/// are recomputed (from the tree) before pivoting resumes. When validation
/// fails, no basis is retained, or the warm pivot count exceeds a safety
/// bound, it falls back to a cold solve.
///
/// A warm solve reaches the same optimal objective but possibly a different
/// optimal vertex than a cold solve. The pipeline's Stage 3 and the ECO
/// driver's per-component Stage 3 solve cold. The rip-up pass's
/// between-pass MCF re-solve (`RipupConfig::mcfResolve`) warm-restarts
/// through `optimizeFixedRowOrderSubset`'s `FroSolverReuse`; it runs its
/// solves serially in a fixed order, so its output stays deterministic and
/// independent of the thread count.
class NetworkSimplexSolver {
 public:
  NetworkSimplexSolver();
  ~NetworkSimplexSolver();
  NetworkSimplexSolver(NetworkSimplexSolver&&) noexcept;
  NetworkSimplexSolver& operator=(NetworkSimplexSolver&&) noexcept;

  McfSolution solve(const McfProblem& problem);
  McfSolution solveWarm(const McfProblem& problem);

  struct Stats {
    long long coldSolves = 0;
    long long coldPivots = 0;
    long long warmSolves = 0;    // warm solves that used the retained basis
    long long warmPivots = 0;
    long long warmRejected = 0;  // fell back cold (validation / pivot bound)
  };
  const Stats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Successive shortest paths with Dijkstra + node potentials. Negative-cost
/// arcs are removed up front by the standard saturate-and-reverse
/// transformation, so the input may contain them (but no negative cycle may
/// be uncapacitated).
class SspSolver {
 public:
  static McfSolution solve(const McfProblem& problem);
};

/// Goldberg-Tarjan cost scaling (push-relabel refine phases with ε-scaling)
/// — the other high-performance MCF family benchmarked by Király & Kovács
/// (the paper's solver reference). Feasibility is established by a Dinic
/// max-flow; negative-cost arcs must have finite capacity (as for SSP).
class CostScalingSolver {
 public:
  static McfSolution solve(const McfProblem& problem);
};

/// Check primal feasibility and complementary slackness of a solution
/// (used by tests and by debug builds of the legalizer). Returns true iff
/// the solution is optimal for the problem.
bool verifyMcfOptimality(const McfProblem& problem, const McfSolution& sol);

}  // namespace mclg
