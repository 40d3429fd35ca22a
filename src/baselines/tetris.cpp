#include <algorithm>
#include <cmath>

#include "baselines/baselines.hpp"
#include "db/free_span.hpp"
#include "util/logging.hpp"

namespace mclg {

BaselineStats legalizeTetris(PlacementState& state,
                             const SegmentMap& segments) {
  const auto& design = state.design();
  BaselineStats stats;

  for (const CellId c : gpXOrder(state)) {
    const auto gx = static_cast<std::int64_t>(std::lround(design.cells[c].gpX));
    std::vector<FreeSlot> slot;
    // Grow the x search window until a slot is found.
    for (std::int64_t halfW = 64; slot.empty() && halfW <= 2 * design.numSitesX;
         halfW *= 4) {
      const Interval xWindow{std::max<std::int64_t>(0, gx - halfW),
                             std::min(design.numSitesX, gx + halfW)};
      slot = nearestFreeSlots(state, segments, c, xWindow, /*maxSlots=*/1,
                              SlotTieBreak::NearerRow);
    }
    if (slot.empty()) {
      ++stats.failed;
      MCLG_LOG_WARN() << "tetris: no slot for cell " << c;
      continue;
    }
    state.place(c, slot[0].x, slot[0].y);
    ++stats.placed;
  }
  return stats;
}

}  // namespace mclg
