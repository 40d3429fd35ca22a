// Fixed-row & fixed-order post-optimization (paper §3.3).
//
// Keeping row assignments and per-row cell order, the optimal x positions
// under the weighted-displacement objective are the solution of LP (4),
// solved through its dual min-cost flow (6): one node per cell plus one
// auxiliary node v_z, arcs
//
//   v_i -> v_z   cap n_i, cost +x'_i        (the |x_i - x'_i| pair ...)
//   v_z -> v_i   cap n_i, cost -x'_i        (... after aux-node elimination)
//   v_z -> v_i   cap inf, cost -l_i         (left feasible bound)
//   v_i -> v_z   cap inf, cost +r_i         (right feasible bound)
//   v_i -> v_j   cap inf, cost -(w_i+s_ij)  (left-neighbor constraints E)
//
// which is the m+1-node / 2m+|C_L|+|C_R|+|E|-arc network the paper compares
// against MrDP's larger formulation. The §3.3.1 extension adds nodes
// v_p, v_n and weight n_0 so a weighted max-displacement term is optimized
// simultaneously (Eqs. 8-9). Optimal positions are read back from the node
// potentials: x_i = pi(v_z) - pi(v_i).
//
// Feasible ranges [l_i, r_i] come from legal/refine/feasible_range.hpp, so
// with routability on the step cannot create pin or fence violations
// (C_L = C_R = C, §3.4).
#pragma once

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "flow/mcf.hpp"
#include "geometry/interval.hpp"
#include "util/executor/executor.hpp"

namespace mclg {

class ForbiddenXIndex;

struct FixedRowOrderConfig {
  /// true: weight n_i per Eq. 2 (contest metric); false: n_i = 1 (total
  /// displacement, Table 2 mode).
  bool contestWeights = true;
  /// Relative weight n_0 of the max-displacement term; 0 disables the
  /// §3.3.1 extension. Expressed as a multiple of the mean cell weight.
  double maxDispWeight = 4.0;
  /// Restrict movements to pin-clean ranges (§3.4).
  bool routability = true;
  /// Include the edge-spacing table in the neighbor separations. Must be
  /// false when refining a placement produced by a spacing-oblivious
  /// legalizer (the LP would be infeasible otherwise).
  bool respectEdgeSpacing = true;
  /// Fixed-point scale turning fractional Eq. 2 weights into integer caps.
  std::int64_t weightScale = 1'000'000;
  /// Build the MrDP-style expanded network (3m+2 nodes, 6m+|E| arcs: the
  /// per-cell |x| auxiliary vertices are kept instead of eliminated) rather
  /// than the paper's compact m+1-node network. Same optimum; exists to
  /// reproduce the paper's formulation-size comparison (§3.3 point (1)).
  bool mrdpStyleNetwork = false;
  /// With > 1, the constraint graph's connected components (cells linked by
  /// neighbor constraints) are solved as independent MCFs in parallel.
  /// Exact same optimum — the LP separates over components — and
  /// thread-count invariant (moves apply serially in component order).
  int numThreads = 1;
  /// Lanes come from this executor when numThreads > 1 (default: the
  /// process-wide executor).
  ExecutorRef executor{};
};

struct FixedRowOrderStats {
  int cellsMoved = 0;
  /// Weighted x-displacement objective (row heights) before/after, for the
  /// improvement assertions in tests.
  double objectiveBefore = 0.0;
  double objectiveAfter = 0.0;
};

/// Run the optimization on a legal placement.
/// \pre  state holds a legal placement (no overlaps; MCLG_ASSERT-enforced).
/// \post Legality is preserved; the weighted objective never increases
///       (modulo integer-rounding noise, which is logged).
/// Determinism: output is invariant under config.numThreads (component
/// solves are independent and applied in a fixed order).
FixedRowOrderStats optimizeFixedRowOrder(PlacementState& state,
                                         const SegmentMap& segments,
                                         const FixedRowOrderConfig& config);

/// Persistent network-simplex state for iterated re-solves of one component
/// whose costs drift between passes (ripup refine re-solves). First use is a cold solve that retains the basis; later uses
/// go through NetworkSimplexSolver::solveWarm, which validates the topology
/// and silently falls back to a cold solve when it changed. Read
/// solver.stats() for the warm/cold/rejected counters.
struct FroSolverReuse {
  NetworkSimplexSolver solver;
  bool hasBasis = false;
};

/// Connected components of the neighbor-constraint graph over the placed
/// movable cells (cells linked by a same-row adjacency, transitively) —
/// or, given `cells`, those of its placed movable cells grouped by the
/// component holding them (the ECO driver's trimmed dirty components).
/// Every placed cell of a row is chained to its row neighbours, so a
/// component is a run of rows linked by multi-row cells: the grouping
/// walks rows, and costs O(|cells| log |cells|) plus the rows it walks.
/// Deterministic: groups ordered by their lowest cell id; cells ascending.
std::vector<std::vector<CellId>> fixedRowOrderComponents(
    const PlacementState& state, const std::vector<CellId>* cells = nullptr);

/// Run the optimization on `subset` only, optionally through a persistent
/// warm-startable solver. The subset may be *any* selection of placed
/// movable cells: a neighbor pair with one endpoint outside the subset
/// contributes no arc, but the inside endpoint's feasible range is clamped
/// against the outside cell's current position (a fixed wall), so the
/// result never overlaps a cell outside the subset. Subsets closed under
/// the neighbor relation (fixedRowOrderComponents entries, or all placed
/// movable cells) see no clamping and solve the exact component optimum;
/// smaller subsets trade optimality at the walls for a solve whose cost is
/// proportional to the subset — the ECO driver's delta-local stage 3.
/// `forbidden` is the design's routability index for the feasible ranges
/// (config.routability); nullptr builds one for this call. A caller that
/// solves many subsets of one design passes one index to all of them. The
/// index fills lazily, so it must not be shared across threads.
/// \pre  With a reuse whose basis was retained on a previous call, the
///       subset and its row order must be unchanged (only GP targets /
///       clamped separations, i.e. arc costs, may differ); a mismatch is
///       safe — solveWarm detects it and re-solves cold.
/// \post Same guarantees as optimizeFixedRowOrder, restricted to `subset`.
FixedRowOrderStats optimizeFixedRowOrderSubset(
    PlacementState& state, const SegmentMap& segments,
    const FixedRowOrderConfig& config, std::vector<CellId> subset,
    FroSolverReuse* reuse = nullptr,
    const ForbiddenXIndex* forbidden = nullptr);

/// The flow network of the optimization, exposed for the formulation-size
/// comparison and for tests that check both structures reach one optimum.
struct FroNetwork {
  McfProblem problem;
  std::vector<CellId> cells;      // row-indexed movable cells
  std::vector<int> cellNode;      // node id of each cell's v_i
  int zNode = -1;
  std::vector<Interval> ranges;   // feasible left-edge ranges (half-open)
};

FroNetwork buildFixedRowOrderNetwork(const PlacementState& state,
                                     const SegmentMap& segments,
                                     const FixedRowOrderConfig& config);

}  // namespace mclg
