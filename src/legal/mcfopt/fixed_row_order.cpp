#include "legal/mcfopt/fixed_row_order.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <optional>
#include <span>
#include <unordered_set>

#include "legal/refine/feasible_range.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/executor/executor.hpp"
#include "util/logging.hpp"

namespace mclg {
namespace {

double weightedObjective(const Design& design,
                         const std::vector<CellId>& cells,
                         bool contestWeights) {
  double total = 0.0;
  for (const CellId c : cells) {
    const auto& cell = design.cells[c];
    const double w = contestWeights ? design.metricWeight(c) : 1.0;
    total += w * design.siteWidthFactor *
             std::abs(static_cast<double>(cell.x) - cell.gpX);
  }
  return total;
}

}  // namespace

namespace {

std::vector<CellId> placedMovableCells(const Design& design) {
  std::vector<CellId> cells;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (!cell.fixed && cell.placed) cells.push_back(c);
  }
  return cells;
}

/// Build the network for a subset of cells (a connected component of the
/// constraint graph, all placed movable cells, or any smaller selection).
/// Neighbor pairs with exactly one endpoint inside the subset get no arc;
/// instead the inside endpoint's feasible range is clamped against the
/// outside cell's current position, so the outside cell acts as a fixed
/// wall and the solve stays overlap-free for arbitrary subsets. For true
/// components no such pairs exist and the network is unchanged.
FroNetwork buildNetworkForCells(const PlacementState& state,
                                const SegmentMap& segments,
                                const FixedRowOrderConfig& config,
                                std::vector<CellId> subset,
                                const ForbiddenXIndex* forbidden) {
  const auto& design = state.design();
  FroNetwork net;
  net.cells = std::move(subset);
  const int m = static_cast<int>(net.cells.size());
  if (m == 0) return net;
  // Subset index of each cell, -1 outside the subset: a per-thread table
  // sized to the largest design seen, whose entries are set for this
  // subset and reset on return, so a delta-sized subset costs no
  // design-sized allocation or fill.
  thread_local std::vector<int> indexTable;
  if (indexTable.size() < static_cast<std::size_t>(design.numCells())) {
    indexTable.resize(static_cast<std::size_t>(design.numCells()), -1);
  }
  for (std::size_t i = 0; i < net.cells.size(); ++i) {
    indexTable[static_cast<std::size_t>(net.cells[i])] = static_cast<int>(i);
  }
  // The span views net.cells' buffer, which a move into the return value
  // carries along, so the reset holds with or without copy elision.
  struct ResetIndex {
    std::span<const CellId> cells;
    ~ResetIndex() {
      for (const CellId c : cells) indexTable[static_cast<std::size_t>(c)] = -1;
    }
  } resetIndex{net.cells};
  const auto indexOf = [](CellId c) {
    return indexTable[static_cast<std::size_t>(c)];
  };

  // Integer weights n_i (caps of the +- arcs).
  std::vector<FlowValue> weight(static_cast<std::size_t>(m), 1);
  long double weightSum = 0.0L;
  for (int i = 0; i < m; ++i) {
    if (config.contestWeights) {
      weight[static_cast<std::size_t>(i)] = std::max<FlowValue>(
          1,
          std::llround(design.metricWeight(net.cells[static_cast<std::size_t>(i)]) *
                       static_cast<double>(config.weightScale)));
    }
    weightSum += static_cast<long double>(weight[static_cast<std::size_t>(i)]);
  }
  const FlowValue n0 =
      config.maxDispWeight > 0.0
          ? std::max<FlowValue>(
                1, std::llround(config.maxDispWeight *
                                static_cast<double>(weightSum) / m))
          : 0;

  auto& problem = net.problem;
  const int base = problem.addNodes(m);
  net.zNode = problem.addNode();
  const int z = net.zNode;
  const int p = n0 > 0 ? problem.addNode() : -1;
  const int nNode = n0 > 0 ? problem.addNode() : -1;
  net.cellNode.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) net.cellNode[static_cast<std::size_t>(i)] = base + i;

  std::vector<CostValue> gpX(static_cast<std::size_t>(m), 0);
  net.ranges.resize(static_cast<std::size_t>(m));
  std::optional<ForbiddenXIndex> ownForbidden;
  if (config.routability && forbidden == nullptr) {
    forbidden = &ownForbidden.emplace(design);
  }
  CostValue maxDy = 0;
  std::vector<CostValue> dy(static_cast<std::size_t>(m), 0);
  for (int i = 0; i < m; ++i) {
    const CellId c = net.cells[static_cast<std::size_t>(i)];
    const auto& cell = design.cells[c];
    gpX[static_cast<std::size_t>(i)] = std::llround(cell.gpX);
    net.ranges[static_cast<std::size_t>(i)] =
        feasibleRange(design, segments, c,
                      config.routability ? forbidden : nullptr);
    // y displacement in site units so all costs share one unit.
    dy[static_cast<std::size_t>(i)] = std::llround(
        std::abs(static_cast<double>(cell.y) - cell.gpY) /
        design.siteWidthFactor);
    maxDy = std::max(maxDy, dy[static_cast<std::size_t>(i)]);
  }

  // Only the stretch of a row from the neighbour left of its leftmost
  // subset cell to the neighbour right of its rightmost one can contribute
  // a clamp or an arc. Visiting just those stretches, rows ascending and
  // each left to right, adds the same arcs in the same order as a sweep
  // over every row — at a cost proportional to the subset.
  struct RowSpan {
    std::int64_t y, xlo, xhi;
  };
  std::vector<RowSpan> spans;
  for (const CellId c : net.cells) {
    const Cell& cell = design.cells[c];
    for (std::int64_t r = cell.y; r < cell.y + design.heightOf(c); ++r) {
      spans.push_back({r, cell.x, cell.x});
    }
  }
  std::sort(spans.begin(), spans.end(), [](const RowSpan& a, const RowSpan& b) {
    return a.y != b.y ? a.y < b.y : a.xlo < b.xlo;
  });
  std::vector<RowSpan> rows;
  for (const RowSpan& span : spans) {
    if (!rows.empty() && rows.back().y == span.y) {
      rows.back().xhi = span.xhi;
    } else {
      rows.push_back(span);
    }
  }
  const auto stretch = [&](const RowSpan& row) {
    const auto& rowMap = state.rowCells(row.y);
    auto first = rowMap.lower_bound(row.xlo);
    if (first != rowMap.begin()) --first;
    auto last = rowMap.upper_bound(row.xhi);
    if (last != rowMap.end()) ++last;
    return std::make_pair(first, last);
  };

  // Wall clamping for partial subsets: a subset cell abutting a cell
  // outside the subset must keep the pair's separation even though no arc
  // links them. The outside cell will not move during this solve, so
  // narrowing the inside cell's range to the gap beside the neighbor's
  // current x is exact. Runs before the range arcs below so li / ri pick
  // up the clamp; for component/full subsets no pair qualifies and the
  // ranges (and thus the arc sequence) are untouched.
  for (const RowSpan& row : rows) {
    const auto [first, last] = stretch(row);
    CellId prev = kInvalidCell;
    std::int64_t prevX = 0;
    for (auto it = first; it != last; ++it) {
      const auto& [x, c] = *it;
      if (prev != kInvalidCell) {
        const int inPrev = indexOf(prev);
        const int inC = indexOf(c);
        if ((inPrev >= 0) != (inC >= 0)) {
          CostValue sep =
              design.widthOf(prev) +
              (config.respectEdgeSpacing ? design.spacingBetween(prev, c) : 0);
          sep = std::min<CostValue>(sep, x - prevX);
          if (inC >= 0) {
            // `prev` is a wall on the left: x_c >= prevX + sep.
            auto& r = net.ranges[static_cast<std::size_t>(inC)];
            r.lo = std::max<std::int64_t>(r.lo, prevX + sep);
          } else {
            // `c` is a wall on the right: x_prev <= x - sep.
            auto& r = net.ranges[static_cast<std::size_t>(inPrev)];
            r.hi = std::min<std::int64_t>(r.hi, x - sep + 1);
          }
        }
      }
      prev = c;
      prevX = x;
    }
  }

  for (int i = 0; i < m; ++i) {
    const FlowValue ni = weight[static_cast<std::size_t>(i)];
    const CostValue xi = gpX[static_cast<std::size_t>(i)];
    const CostValue li = net.ranges[static_cast<std::size_t>(i)].lo;
    const CostValue ri = net.ranges[static_cast<std::size_t>(i)].hi - 1;
    if (config.mrdpStyleNetwork) {
      // MrDP-style expanded structure (§3.3 point (1)): keep the |x| aux
      // vertices v_i^+ / v_i^- in series with the cost arcs instead of
      // eliminating them — same flows, same optimum, 3m+2 nodes, 6m+|E|
      // arcs.
      const int plus = problem.addNode();
      const int minus = problem.addNode();
      problem.addArc(base + i, plus, ni, 0);
      problem.addArc(plus, z, ni, xi);            // f_i^+ via v_i^+
      problem.addArc(z, minus, ni, -xi);          // f_i^- via v_i^-
      problem.addArc(minus, base + i, ni, 0);
      problem.addArc(z, base + i, kInfiniteCap, -li);  // f_i^l
      problem.addArc(base + i, z, kInfiniteCap, ri);   // f_i^r
    } else {
      problem.addArc(base + i, z, ni, xi);             // f_i^+
      problem.addArc(z, base + i, ni, -xi);            // f_i^-
      problem.addArc(z, base + i, kInfiniteCap, -li);  // f_i^l
      problem.addArc(base + i, z, kInfiniteCap, ri);   // f_i^r
    }
    if (n0 > 0) {
      problem.addArc(base + i, p, kInfiniteCap,
                     xi - dy[static_cast<std::size_t>(i)]);  // f_i^p
      problem.addArc(nNode, base + i, kInfiniteCap,
                     -xi - dy[static_cast<std::size_t>(i)]);  // f_i^n
    }
  }
  if (n0 > 0) {
    problem.addArc(p, z, n0, maxDy);      // f^p
    problem.addArc(z, nNode, n0, maxDy);  // f^n
  }

  // Neighbor constraints E: consecutive movable cells in each row, deduped
  // (a pair abutting in several rows yields one constraint; the spacing is
  // identical in each row since it depends only on the two types).
  std::unordered_set<std::uint64_t> seenPairs;
  for (const RowSpan& row : rows) {
    const auto [first, last] = stretch(row);
    CellId prev = kInvalidCell;
    std::int64_t prevX = 0;
    for (auto it = first; it != last; ++it) {
      const auto& [x, c] = *it;
      if (prev != kInvalidCell) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(prev))
             << 32) |
            static_cast<std::uint32_t>(c);
        if (indexOf(prev) >= 0 && indexOf(c) >= 0 &&
            seenPairs.insert(key).second) {
          CostValue sep =
              design.widthOf(prev) +
              (config.respectEdgeSpacing ? design.spacingBetween(prev, c) : 0);
          // A last-resort placement may already violate the (soft) spacing
          // rule; clamping to the existing separation keeps the LP feasible
          // without letting any pair get closer than it already is.
          sep = std::min<CostValue>(sep, x - prevX);
          problem.addArc(base + indexOf(prev), base + indexOf(c),
                         kInfiniteCap, -sep);
        }
      }
      prev = c;
      prevX = x;
    }
  }
  return net;
}

}  // namespace

FroNetwork buildFixedRowOrderNetwork(const PlacementState& state,
                                     const SegmentMap& segments,
                                     const FixedRowOrderConfig& config) {
  return buildNetworkForCells(state, segments, config,
                              placedMovableCells(state.design()), nullptr);
}

namespace {

/// Solve one subset's network and append its moves. With `reuse`, the solve
/// goes through the persistent solver (cold on first use, warm after).
void solveSubset(const PlacementState& state, const SegmentMap& segments,
                 const FixedRowOrderConfig& config, std::vector<CellId> subset,
                 std::vector<std::pair<CellId, std::int64_t>>* moves,
                 FroSolverReuse* reuse = nullptr,
                 const ForbiddenXIndex* forbidden = nullptr) {
  const auto& design = state.design();
  MCLG_TRACE_SCOPE("mcfopt/component",
                   {{"cells", static_cast<double>(subset.size())}});
  const FroNetwork net = buildNetworkForCells(state, segments, config,
                                              std::move(subset), forbidden);
  if (net.cells.empty()) return;
  if (obs::metricsEnabled()) {
    obs::counter("mcfopt.components").add();
    obs::counter("mcfopt.nodes").add(net.problem.numNodes());
    obs::counter("mcfopt.arcs").add(net.problem.numArcs());
  }
  McfSolution sol;
  if (reuse != nullptr) {
    sol = reuse->hasBasis ? reuse->solver.solveWarm(net.problem)
                          : reuse->solver.solve(net.problem);
    reuse->hasBasis = true;
  } else {
    sol = NetworkSimplex::solve(net.problem);
  }
  MCLG_ASSERT(sol.status == McfStatus::Optimal,
              "fixed-row-order MCF must be optimal (zero flow is feasible)");
  // Read positions back from the potentials: x_i = pi(v_z) - pi(v_i).
  const CostValue piZ = sol.potential[static_cast<std::size_t>(net.zNode)];
  for (std::size_t i = 0; i < net.cells.size(); ++i) {
    const CellId c = net.cells[i];
    std::int64_t x = piZ - sol.potential[static_cast<std::size_t>(net.cellNode[i])];
    const auto& r = net.ranges[i];
    MCLG_ASSERT(x >= r.lo && x <= r.hi - 1,
                "MCF potentials violate a feasible range");
    x = std::clamp<std::int64_t>(x, r.lo, r.hi - 1);
    if (x != design.cells[c].x) moves->emplace_back(c, x);
  }
}

/// Apply moves transactionally: remove every moved cell first, then
/// re-place left-to-right (the MCF respects the separations, so sorted
/// placement never collides).
void applyMoves(PlacementState& state,
                std::vector<std::pair<CellId, std::int64_t>>& moves) {
  const auto& design = state.design();
  for (const auto& [c, x] : moves) {
    (void)x;
    state.remove(c);
  }
  std::sort(moves.begin(), moves.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [c, x] : moves) {
    state.place(c, x, design.cells[c].y);
  }
}

void finishStats(const Design& design, const std::vector<CellId>& cells,
                 const FixedRowOrderConfig& config, int moved,
                 FixedRowOrderStats* stats) {
  stats->cellsMoved = moved;
  if (obs::metricsEnabled()) {
    obs::counter("mcfopt.cells_moved").add(moved);
  }
  stats->objectiveAfter =
      weightedObjective(design, cells, config.contestWeights);
  if (stats->objectiveAfter > stats->objectiveBefore + 1e-6) {
    // Only possible through the integer rounding of GP positions and
    // weights; should stay within rounding noise. A resident daemon hits
    // it on a few percent of its requests, so it is counted, and logged at
    // WARN once per process and at debug after that.
    if (obs::metricsEnabled()) {
      obs::counter("mcfopt.objective_regressions").add();
    }
    static std::atomic<bool> warned{false};
    LogLine(warned.exchange(true) ? LogLevel::Debug : LogLevel::Warn)
        << "fixed-row-order objective regressed: " << stats->objectiveBefore
        << " -> " << stats->objectiveAfter
        << " (counted in mcfopt.objective_regressions; later ones log at "
           "debug)";
  }
}

}  // namespace

std::vector<std::vector<CellId>> fixedRowOrderComponents(
    const PlacementState& state, const std::vector<CellId>* cells) {
  const auto& design = state.design();
  const auto numRows = static_cast<std::size_t>(design.numRows);
  // Every placed cell of a row is chained to its row neighbours, so a
  // component is a run of consecutive rows, each linked to the next by a
  // cell spanning both; a run is named by its first row.
  std::vector<std::int64_t> runOf(numRows);
  for (std::int64_t y = 0; y < design.numRows; ++y) {
    runOf[static_cast<std::size_t>(y)] =
        y > 0 && state.cellsSpanning(y - 1) > 0
            ? runOf[static_cast<std::size_t>(y - 1)]
            : y;
  }

  std::vector<std::pair<std::int64_t, CellId>> keyed;
  const auto add = [&](CellId c) {
    const Cell& cell = design.cells[c];
    if (!cell.fixed && cell.placed) {
      keyed.emplace_back(runOf[static_cast<std::size_t>(cell.y)], c);
    }
  };
  if (cells == nullptr) {
    for (CellId c = 0; c < design.numCells(); ++c) add(c);
  } else {
    for (const CellId c : *cells) add(c);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  std::vector<std::vector<CellId>> components;
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      components.emplace_back();
    }
    components.back().push_back(keyed[i].second);
  }
  std::sort(components.begin(), components.end(),
            [](const std::vector<CellId>& a, const std::vector<CellId>& b) {
              return a.front() < b.front();
            });
  return components;
}

FixedRowOrderStats optimizeFixedRowOrder(PlacementState& state,
                                         const SegmentMap& segments,
                                         const FixedRowOrderConfig& config) {
  auto& design = state.design();
  FixedRowOrderStats stats;

  const std::vector<CellId> all = placedMovableCells(design);
  const int m = static_cast<int>(all.size());
  if (m == 0) return stats;
  stats.objectiveBefore = weightedObjective(design, all, config.contestWeights);

  std::vector<std::pair<CellId, std::int64_t>> moves;
  // The §3.3.1 max-displacement term couples every cell, so component
  // decomposition is only exact for the plain objective.
  if (config.numThreads > 1 && config.maxDispWeight == 0.0) {
    const std::vector<std::vector<CellId>> components =
        fixedRowOrderComponents(state);
    std::vector<std::vector<std::pair<CellId, std::int64_t>>> perComponent(
        components.size());
    config.executor.parallelForBatch(
        static_cast<int>(components.size()), config.numThreads, [&](int i) {
          solveSubset(state, segments, config,
                      components[static_cast<std::size_t>(i)],
                      &perComponent[static_cast<std::size_t>(i)]);
        });
    for (auto& part : perComponent) {
      moves.insert(moves.end(), part.begin(), part.end());
    }
  } else {
    solveSubset(state, segments, config, all, &moves);
  }

  applyMoves(state, moves);
  finishStats(design, all, config, static_cast<int>(moves.size()), &stats);
  return stats;
}

FixedRowOrderStats optimizeFixedRowOrderSubset(
    PlacementState& state, const SegmentMap& segments,
    const FixedRowOrderConfig& config, std::vector<CellId> subset,
    FroSolverReuse* reuse, const ForbiddenXIndex* forbidden) {
  auto& design = state.design();
  FixedRowOrderStats stats;
  if (subset.empty()) return stats;
  stats.objectiveBefore =
      weightedObjective(design, subset, config.contestWeights);

  std::vector<std::pair<CellId, std::int64_t>> moves;
  const std::vector<CellId> cells = subset;  // keep a copy for the stats
  solveSubset(state, segments, config, std::move(subset), &moves, reuse,
              forbidden);

  applyMoves(state, moves);
  finishStats(design, cells, config, static_cast<int>(moves.size()), &stats);
  return stats;
}

}  // namespace mclg
