#include "legal/refine/wirelength_recovery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eval/metrics.hpp"
#include "legal/refine/feasible_range.hpp"

namespace mclg {
namespace {

/// Pin-center x offset (site units) of a connection, relative to the cell's
/// left edge. Orientation-invariant (vertical flips keep x extents).
double pinOffsetX(const Design& design, const Net::Conn& conn) {
  const auto& pin =
      design.typeOf(conn.cell).pins[static_cast<std::size_t>(conn.pin)];
  return static_cast<double>(pin.rect.xlo + pin.rect.xhi) /
         (2.0 * Design::kFine);
}

/// Current pin-center x of a connection (legal position).
double pinX(const Design& design, const Net::Conn& conn) {
  return static_cast<double>(design.cells[conn.cell].x) +
         pinOffsetX(design, conn);
}

}  // namespace

WirelengthRecoveryStats recoverWirelength(
    PlacementState& state, const SegmentMap& segments,
    const WirelengthRecoveryConfig& config) {
  auto& design = state.design();
  WirelengthRecoveryStats stats;
  stats.hpwlBefore = hpwl(design, /*useGp=*/false);
  stats.avgDispBefore = displacementStats(design).average;

  // Net membership with per-connection offsets.
  std::vector<std::vector<std::pair<NetId, double>>> connsOf(
      static_cast<std::size_t>(design.numCells()));
  for (NetId net = 0; net < static_cast<NetId>(design.nets.size()); ++net) {
    for (const auto& conn : design.nets[net].conns) {
      if (design.cells[conn.cell].fixed) continue;
      connsOf[static_cast<std::size_t>(conn.cell)].emplace_back(
          net, pinOffsetX(design, conn));
    }
  }

  // Budget anchor: the x-displacement each cell had *entering* recovery
  // (recomputing from the live position would let the budget ratchet up
  // pass after pass).
  std::vector<double> initialAbsDx(static_cast<std::size_t>(design.numCells()),
                                   0.0);
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (!cell.fixed && cell.placed) {
      initialAbsDx[static_cast<std::size_t>(c)] =
          std::abs(static_cast<double>(cell.x) - cell.gpX);
    }
  }

  const ForbiddenXIndex forbidden(design);
  for (int pass = 0; pass < config.passes; ++pass) {
    int movedThisPass = 0;
    for (CellId c = 0; c < design.numCells(); ++c) {
      const auto& cell = design.cells[c];
      if (cell.fixed || !cell.placed) continue;
      const auto& myConns = connsOf[static_cast<std::size_t>(c)];
      if (myConns.empty()) continue;
      const int w = design.widthOf(c);
      const int h = design.heightOf(c);

      // Allowed left-edge interval: §3.4 range ∩ neighbor gaps ∩ budget.
      Interval range = feasibleRange(design, segments, c,
                                     config.routability ? &forbidden : nullptr);
      std::int64_t lo = range.lo;
      std::int64_t hi = range.hi - 1;
      for (std::int64_t r = cell.y; r < cell.y + h; ++r) {
        const auto& rowMap = state.rowCells(r);
        auto it = rowMap.find(cell.x);
        if (it != rowMap.begin()) {
          auto prev = std::prev(it);
          lo = std::max(lo, prev->first + design.widthOf(prev->second) +
                                design.spacingBetween(prev->second, c));
        }
        auto next = std::next(it);
        if (next != rowMap.end()) {
          hi = std::min(hi, next->first - design.spacingBetween(c, next->second) -
                                w);
        }
      }
      if (config.maxAddedDisplacement > 0.0) {
        const double budgetSites =
            initialAbsDx[static_cast<std::size_t>(c)] +
            config.maxAddedDisplacement / design.siteWidthFactor;
        lo = std::max(lo, static_cast<std::int64_t>(
                              std::ceil(cell.gpX - budgetSites)));
        hi = std::min(hi, static_cast<std::int64_t>(
                              std::floor(cell.gpX + budgetSites)));
      }
      if (lo > hi) continue;

      // Per-net x-span of the *other* pins, as bounds on this cell's left
      // edge; breakpoints of the piecewise-linear HPWL term.
      struct NetBound {
        double lo, hi;  // left-edge coordinates where the pin is interior
        bool valid;
      };
      std::vector<NetBound> bounds;
      std::vector<std::int64_t> candidates{lo, hi, cell.x};
      for (const auto& [net, offset] : myConns) {
        double otherLo = std::numeric_limits<double>::infinity();
        double otherHi = -otherLo;
        int others = 0;
        for (const auto& conn : design.nets[static_cast<std::size_t>(net)].conns) {
          if (conn.cell == c) continue;
          const auto& other = design.cells[conn.cell];
          if (!other.placed && !other.fixed) continue;
          const double px = pinX(design, conn);
          otherLo = std::min(otherLo, px);
          otherHi = std::max(otherHi, px);
          ++others;
        }
        if (others == 0) {
          bounds.push_back({0, 0, false});
          continue;
        }
        bounds.push_back({otherLo - offset, otherHi - offset, true});
        for (const double b : {otherLo - offset, otherHi - offset}) {
          const auto fl = static_cast<std::int64_t>(std::floor(b));
          const auto ce = static_cast<std::int64_t>(std::ceil(b));
          if (fl >= lo && fl <= hi) candidates.push_back(fl);
          if (ce >= lo && ce <= hi) candidates.push_back(ce);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      auto costAt = [&](std::int64_t x) {
        double total = 0.0;
        for (const auto& nb : bounds) {
          if (!nb.valid) continue;
          const double p = static_cast<double>(x);
          total += std::max(0.0, p - nb.hi) + std::max(0.0, nb.lo - p);
        }
        return total;
      };

      const double curCost = costAt(cell.x);
      double bestCost = curCost;
      std::int64_t bestX = cell.x;
      for (const std::int64_t x : candidates) {
        const double cost = costAt(x);
        if (cost < bestCost - 1e-9 ||
            (cost < bestCost + 1e-9 &&
             std::abs(static_cast<double>(x) - cell.gpX) <
                 std::abs(static_cast<double>(bestX) - cell.gpX) - 1e-9)) {
          bestCost = cost;
          bestX = x;
        }
      }
      if (bestX != cell.x && bestCost < curCost - 1e-9) {
        state.shiftX(c, bestX);
        ++movedThisPass;
      }
    }
    stats.cellsMoved += movedThisPass;
    if (movedThisPass == 0) break;
  }

  stats.hpwlAfter = hpwl(design, /*useGp=*/false);
  stats.avgDispAfter = displacementStats(design).average;
  return stats;
}

}  // namespace mclg
