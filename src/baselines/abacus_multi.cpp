// [7]-style ordered multi-row legalization: cells are processed in GP x
// order and appended to per-row frontiers, choosing the row span that
// minimizes displacement plus a dead-space penalty (the cost Wang et al.
// evaluate when extending Abacus to multi-row cells). Because cells arrive
// in x order, appending at max(frontier, gpX) preserves the GP cell order —
// the defining restriction of this algorithm family that the paper argues
// hurts dense designs.

#include <algorithm>
#include <cmath>

#include "baselines/baselines.hpp"
#include "db/free_span.hpp"
#include "util/logging.hpp"

namespace mclg {

BaselineStats legalizeAbacusMulti(PlacementState& state,
                                  const SegmentMap& segments) {
  auto& design = state.design();
  BaselineStats stats;

  std::vector<std::int64_t> frontier(
      static_cast<std::size_t>(design.numRows), 0);
  const double swf = design.siteWidthFactor;
  const double deadSpacePenalty = 0.05;  // per empty site left behind

  for (const CellId c : gpXOrder(state)) {
    const auto& cell = design.cells[c];
    const auto& type = design.typeOf(c);
    const int h = type.height;
    const int w = type.width;
    const auto gpX = static_cast<std::int64_t>(std::lround(cell.gpX));

    double bestCost = 0.0;
    std::int64_t bestX = -1, bestY = -1;
    for (std::int64_t y = 0; y + h <= design.numRows; ++y) {
      if (!design.parityOk(cell.type, y)) continue;
      std::int64_t front = 0;
      for (std::int64_t r = y; r < y + h; ++r) {
        front = std::max(front, frontier[static_cast<std::size_t>(r)]);
      }
      // Prefer the GP x when the frontier has not reached it yet.
      std::int64_t x = std::max(front, gpX);
      // Find a fence-legal slot at or right of x.
      if (!segments.spanInFence(y, h, x, w, cell.fence) ||
          !state.spanEmpty(y, h, x, w)) {
        const auto free = freeIntervalsForSpan(state, segments, y, h,
                                               cell.fence,
                                               {front, design.numSitesX});
        x = -1;
        for (const auto& iv : free) {
          if (iv.length() >= w) {
            x = std::max(iv.lo, std::min(gpX, iv.hi - w));
            if (x < front) x = iv.lo;
            break;
          }
        }
        if (x < 0) continue;
      }
      const double cost =
          swf * std::abs(static_cast<double>(x) - cell.gpX) +
          std::abs(static_cast<double>(y) - cell.gpY) +
          deadSpacePenalty * static_cast<double>(std::max<std::int64_t>(0, x - front));
      if (bestX < 0 || cost < bestCost) {
        bestCost = cost;
        bestX = x;
        bestY = y;
      }
    }
    if (bestX < 0) {
      // The ordered frontier jammed on dead space; fall back to the nearest
      // free slot anywhere (implementations of [7] recover by re-packing
      // clusters — the displacement cost is equivalent in spirit).
      const std::vector<FreeSlot> slot =
          nearestFreeSlots(state, segments, c, {0, design.numSitesX},
                           /*maxSlots=*/1, SlotTieBreak::LowerRow);
      if (!slot.empty()) {
        bestX = slot[0].x;
        bestY = slot[0].y;
      }
    }
    if (bestX < 0) {
      ++stats.failed;
      MCLG_LOG_WARN() << "abacus-multi: no slot for cell " << c;
      continue;
    }
    state.place(c, bestX, bestY);
    for (std::int64_t r = bestY; r < bestY + h; ++r) {
      frontier[static_cast<std::size_t>(r)] =
          std::max(frontier[static_cast<std::size_t>(r)], bestX + w);
    }
    ++stats.placed;
  }
  return stats;
}

}  // namespace mclg
