#include "baselines/qp_legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "legal/mcfopt/fixed_row_order.hpp"
#include "legal/refine/feasible_range.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mclg {
namespace {

struct PairConstraint {
  int left;   // index into cells
  int right;
  double sep;  // x_right - x_left >= sep
  double lambda = 0.0;
};

}  // namespace

QpLegalizerStats optimizeQuadraticFixedRowOrder(
    PlacementState& state, const SegmentMap& segments,
    const QpLegalizerConfig& config) {
  auto& design = state.design();
  QpLegalizerStats stats;

  // Index placed movable cells.
  std::vector<CellId> cells;
  std::vector<int> indexOf(static_cast<std::size_t>(design.numCells()), -1);
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    indexOf[static_cast<std::size_t>(c)] = static_cast<int>(cells.size());
    cells.push_back(c);
  }
  const int m = static_cast<int>(cells.size());
  if (m == 0) return stats;

  std::vector<double> x(static_cast<std::size_t>(m));
  std::vector<double> desired(static_cast<std::size_t>(m));
  std::vector<double> invQ(static_cast<std::size_t>(m));  // 1 / (2 w_i)
  std::vector<double> lo(static_cast<std::size_t>(m));
  std::vector<double> hi(static_cast<std::size_t>(m));
  std::vector<double> loLambda(static_cast<std::size_t>(m), 0.0);
  std::vector<double> hiLambda(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    const CellId c = cells[static_cast<std::size_t>(i)];
    const auto& cell = design.cells[c];
    desired[static_cast<std::size_t>(i)] = cell.gpX;
    const double w = config.contestWeights ? design.metricWeight(c) : 1.0;
    invQ[static_cast<std::size_t>(i)] = 1.0 / (2.0 * std::max(1e-12, w));
    const Interval range =
        feasibleRange(design, segments, c, /*routability=*/nullptr);
    lo[static_cast<std::size_t>(i)] = static_cast<double>(range.lo);
    hi[static_cast<std::size_t>(i)] = static_cast<double>(range.hi - 1);
    stats.objectiveBefore +=
        w * (cell.x - cell.gpX) * (cell.x - cell.gpX);
    // Start from the unconstrained optimum (the KKT stationary point with
    // zero multipliers).
    x[static_cast<std::size_t>(i)] = cell.gpX;
  }

  // Neighbor constraints (deduped across shared rows, separation clamped to
  // the existing gap as in the linear optimizer).
  std::vector<PairConstraint> pairs;
  std::unordered_set<std::uint64_t> seen;
  for (std::int64_t y = 0; y < design.numRows; ++y) {
    const auto& rowMap = state.rowCells(y);
    CellId prev = kInvalidCell;
    std::int64_t prevX = 0;
    for (const auto& [cx, c] : rowMap) {
      if (prev != kInvalidCell) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(prev))
             << 32) |
            static_cast<std::uint32_t>(c);
        if (seen.insert(key).second) {
          double sep = design.widthOf(prev) +
                       (config.respectEdgeSpacing
                            ? design.spacingBetween(prev, c)
                            : 0);
          sep = std::min(sep, static_cast<double>(cx - prevX));
          pairs.push_back({indexOf[static_cast<std::size_t>(prev)],
                           indexOf[static_cast<std::size_t>(c)], sep});
        }
      }
      prev = c;
      prevX = cx;
    }
  }

  // Projected Gauss-Seidel over the KKT multipliers. Alternating
  // forward/backward sweeps propagate corrections along long chains in both
  // directions, which converges far faster than one-directional sweeps.
  auto relaxPair = [&](PairConstraint& pc) {
    const auto li = static_cast<std::size_t>(pc.left);
    const auto ri = static_cast<std::size_t>(pc.right);
    const double denom = invQ[li] + invQ[ri];
    const double residual = pc.sep - (x[ri] - x[li]);
    double dLambda = residual / denom;
    dLambda = std::max(dLambda, -pc.lambda);
    if (dLambda == 0.0) return 0.0;
    pc.lambda += dLambda;
    x[li] -= dLambda * invQ[li];
    x[ri] += dLambda * invQ[ri];
    return std::abs(dLambda) * denom;
  };
  int iter = 0;
  for (; iter < config.maxIterations; ++iter) {
    double maxChange = 0.0;
    if (iter % 2 == 0) {
      for (auto& pc : pairs) maxChange = std::max(maxChange, relaxPair(pc));
    } else {
      for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
        maxChange = std::max(maxChange, relaxPair(*it));
      }
    }
    for (int i = 0; i < m; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      // x_i >= lo_i.
      double dLambda = (lo[ii] - x[ii]) / invQ[ii];
      dLambda = std::max(dLambda, -loLambda[ii]);
      if (dLambda != 0.0) {
        loLambda[ii] += dLambda;
        x[ii] += dLambda * invQ[ii];
        maxChange = std::max(maxChange, std::abs(dLambda) * invQ[ii]);
      }
      // x_i <= hi_i.
      dLambda = (x[ii] - hi[ii]) / invQ[ii];
      dLambda = std::max(dLambda, -hiLambda[ii]);
      if (dLambda != 0.0) {
        hiLambda[ii] += dLambda;
        x[ii] -= dLambda * invQ[ii];
        maxChange = std::max(maxChange, std::abs(dLambda) * invQ[ii]);
      }
    }
    if (maxChange < config.tolerance) break;
  }
  stats.iterations = iter;

  // Round to sites with a forward pass in nondecreasing float-x order; the
  // per-row cursors keep separations exact.
  std::vector<int> order(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (x[static_cast<std::size_t>(a)] != x[static_cast<std::size_t>(b)]) {
      return x[static_cast<std::size_t>(a)] < x[static_cast<std::size_t>(b)];
    }
    return design.cells[cells[static_cast<std::size_t>(a)]].x <
           design.cells[cells[static_cast<std::size_t>(b)]].x;
  });
  struct Cursor {
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
    CellId last = kInvalidCell;
  };
  std::vector<Cursor> cursors(static_cast<std::size_t>(design.numRows));
  std::vector<std::int64_t> finalX(static_cast<std::size_t>(m));
  bool roundingOk = true;
  for (const int i : order) {
    const auto ii = static_cast<std::size_t>(i);
    const CellId c = cells[ii];
    const auto& cell = design.cells[c];
    std::int64_t bound = static_cast<std::int64_t>(std::llround(lo[ii]));
    for (std::int64_t r = cell.y; r < cell.y + design.heightOf(c); ++r) {
      const auto& cur = cursors[static_cast<std::size_t>(r)];
      if (cur.last != kInvalidCell) {
        const std::int64_t sep =
            design.widthOf(cur.last) +
            (config.respectEdgeSpacing ? design.spacingBetween(cur.last, c)
                                       : 0);
        bound = std::max(bound, cur.end - design.widthOf(cur.last) + sep);
      }
    }
    std::int64_t xi = std::max(bound,
                               static_cast<std::int64_t>(std::llround(x[ii])));
    xi = std::min(xi, static_cast<std::int64_t>(std::llround(hi[ii])));
    if (xi < bound) {
      roundingOk = false;
      break;
    }
    finalX[ii] = xi;
    for (std::int64_t r = cell.y; r < cell.y + design.heightOf(c); ++r) {
      cursors[static_cast<std::size_t>(r)] = {xi + design.widthOf(c), c};
    }
  }
  if (!roundingOk) {
    // PGS had not converged enough for a consistent rounding (very long
    // packed chains converge slowly). Fall back to the exact *linear*
    // fixed-row-&-order projection so the refinement still happens.
    MCLG_LOG_WARN() << "QP rounding jammed after " << iter
                    << " sweeps; falling back to the linear MCF projection";
    FixedRowOrderConfig linear;
    linear.contestWeights = config.contestWeights;
    linear.routability = false;
    linear.respectEdgeSpacing = config.respectEdgeSpacing;
    linear.maxDispWeight = 0.0;
    const auto linearStats = optimizeFixedRowOrder(state, segments, linear);
    stats.cellsMoved = linearStats.cellsMoved;
    stats.objectiveAfter = 0.0;
    for (int i = 0; i < m; ++i) {
      const CellId c = cells[static_cast<std::size_t>(i)];
      const double w = config.contestWeights ? design.metricWeight(c) : 1.0;
      const double dx =
          static_cast<double>(design.cells[c].x) - design.cells[c].gpX;
      stats.objectiveAfter += w * dx * dx;
    }
    return stats;
  }

  // Apply (remove all moved, re-place left to right).
  std::vector<std::pair<CellId, std::int64_t>> moves;
  for (int i = 0; i < m; ++i) {
    const CellId c = cells[static_cast<std::size_t>(i)];
    if (finalX[static_cast<std::size_t>(i)] != design.cells[c].x) {
      moves.emplace_back(c, finalX[static_cast<std::size_t>(i)]);
    }
  }
  for (const auto& [c, nx] : moves) {
    (void)nx;
    state.remove(c);
  }
  std::sort(moves.begin(), moves.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [c, nx] : moves) {
    state.place(c, nx, design.cells[c].y);
  }
  stats.cellsMoved = static_cast<int>(moves.size());
  for (int i = 0; i < m; ++i) {
    const CellId c = cells[static_cast<std::size_t>(i)];
    const double w = config.contestWeights ? design.metricWeight(c) : 1.0;
    const double dx = static_cast<double>(design.cells[c].x) -
                      design.cells[c].gpX;
    stats.objectiveAfter += w * dx * dx;
  }
  return stats;
}

}  // namespace mclg
