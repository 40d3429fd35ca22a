#include <algorithm>
#include <cmath>

#include "baselines/baselines.hpp"
#include "db/free_span.hpp"
#include "util/logging.hpp"

namespace mclg {

BaselineStats legalizeTetris(PlacementState& state,
                             const SegmentMap& segments) {
  auto& design = state.design();
  BaselineStats stats;

  std::vector<CellId> order;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (!cell.fixed && !cell.placed) order.push_back(c);
  }
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    if (design.cells[a].gpX != design.cells[b].gpX) {
      return design.cells[a].gpX < design.cells[b].gpX;
    }
    return a < b;
  });

  const double swf = design.siteWidthFactor;
  for (const CellId c : order) {
    const auto& cell = design.cells[c];
    const auto& type = design.typeOf(c);
    const int h = type.height;
    const int w = type.width;
    const auto gy = static_cast<std::int64_t>(std::lround(cell.gpY));

    bool placed = false;
    // Grow the x search window until a slot is found.
    for (std::int64_t halfW = 64; !placed && halfW <= 2 * design.numSitesX;
         halfW *= 4) {
      const Interval xWindow{
          std::max<std::int64_t>(
              0, static_cast<std::int64_t>(std::lround(cell.gpX)) - halfW),
          std::min(design.numSitesX,
                   static_cast<std::int64_t>(std::lround(cell.gpX)) + halfW)};
      double bestCost = 0.0;
      std::int64_t bestX = -1, bestY = -1;
      // Scan rows by growing distance from the GP row; stop once the y
      // distance alone exceeds the best cost so far.
      for (std::int64_t dy = 0; dy < design.numRows; ++dy) {
        if (bestX >= 0 && static_cast<double>(dy) - 1.0 > bestCost) break;
        for (const std::int64_t y : {gy - dy, gy + dy}) {
          if (dy == 0 && y != gy) continue;
          if (y < 0 || y + h > design.numRows) continue;
          if (!design.parityOk(cell.type, y)) continue;
          const auto free =
              freeIntervalsForSpan(state, segments, y, h, cell.fence, xWindow);
          for (const auto& iv : free) {
            if (iv.length() < w) continue;
            const std::int64_t x = std::clamp(
                static_cast<std::int64_t>(std::lround(cell.gpX)), iv.lo,
                iv.hi - w);
            const double cost =
                swf * std::abs(static_cast<double>(x) - cell.gpX) +
                std::abs(static_cast<double>(y) - cell.gpY);
            if (bestX < 0 || cost < bestCost) {
              bestCost = cost;
              bestX = x;
              bestY = y;
            }
          }
        }
      }
      if (bestX >= 0) {
        state.place(c, bestX, bestY);
        placed = true;
      }
    }
    if (placed) {
      ++stats.placed;
    } else {
      ++stats.failed;
      MCLG_LOG_WARN() << "tetris: no slot for cell " << c;
    }
  }
  return stats;
}

}  // namespace mclg
