#include "db/free_span.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mclg {

std::vector<Interval> freeIntervalsForSpan(const PlacementState& state,
                                           const SegmentMap& segments,
                                           std::int64_t y, int h,
                                           FenceId fence,
                                           const Interval& xWindow) {
  const auto& design = state.design();
  std::vector<Interval> result;
  bool first = true;
  std::vector<Interval> rowFree;
  for (std::int64_t r = y; r < y + h; ++r) {
    rowFree.clear();
    for (const auto& seg : segments.row(r)) {
      if (seg.fence != fence) continue;
      Interval iv = seg.x.intersect(xWindow);
      if (iv.empty()) continue;
      // Subtract occupied cells.
      const auto& rowMap = state.rowCells(r);
      std::int64_t cursor = iv.lo;
      auto it = rowMap.lower_bound(iv.lo);
      if (it != rowMap.begin()) {
        auto prev = std::prev(it);
        const std::int64_t prevEnd =
            prev->first + design.widthOf(prev->second);
        if (prevEnd > cursor) cursor = prevEnd;
      }
      for (; it != rowMap.end() && it->first < iv.hi; ++it) {
        if (it->first > cursor) rowFree.push_back({cursor, it->first});
        cursor = std::max(cursor, it->first + design.widthOf(it->second));
      }
      if (cursor < iv.hi) rowFree.push_back({cursor, iv.hi});
    }
    if (first) {
      result = rowFree;
      first = false;
    } else {
      // Intersect the accumulated intervals with this row's free intervals.
      std::vector<Interval> merged;
      std::size_t a = 0, b = 0;
      while (a < result.size() && b < rowFree.size()) {
        const Interval iv = result[a].intersect(rowFree[b]);
        if (!iv.empty()) merged.push_back(iv);
        if (result[a].hi < rowFree[b].hi) {
          ++a;
        } else {
          ++b;
        }
      }
      result = std::move(merged);
    }
    if (result.empty()) return result;
  }
  return result;
}

std::vector<FreeSlot> nearestFreeSlots(const PlacementState& state,
                                       const SegmentMap& segments, CellId c,
                                       const Interval& xWindow, int maxSlots,
                                       SlotTieBreak ties) {
  const auto& design = state.design();
  const auto& cell = design.cells[c];
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  const double swf = design.siteWidthFactor;
  const auto gpSite = static_cast<std::int64_t>(std::lround(cell.gpX));
  const auto gpRow = static_cast<std::int64_t>(std::lround(cell.gpY));
  const auto rowRank = [&](std::int64_t y) {
    return ties == SlotTieBreak::NearerRow ? std::abs(y - gpRow) : 0;
  };
  const auto before = [&](const FreeSlot& a, const FreeSlot& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (rowRank(a.y) != rowRank(b.y)) return rowRank(a.y) < rowRank(b.y);
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  };
  MCLG_ASSERT(maxSlots >= 1, "nearestFreeSlots needs room for a slot");
  const auto keep = static_cast<std::size_t>(maxSlots);
  std::vector<FreeSlot> slots;  // the cheapest so far, sorted by `before`
  const auto scanRow = [&](std::int64_t y) {
    if (y < 0 || y + h > design.numRows) return;
    if (!design.parityOk(cell.type, y)) return;
    for (const auto& iv :
         freeIntervalsForSpan(state, segments, y, h, cell.fence, xWindow)) {
      if (iv.length() < w) continue;
      const std::int64_t x = std::clamp(gpSite, iv.lo, iv.hi - w);
      const FreeSlot slot{swf * std::abs(static_cast<double>(x) - cell.gpX) +
                              std::abs(static_cast<double>(y) - cell.gpY),
                          x, y};
      if (slots.size() == keep && !before(slot, slots.back())) continue;
      slots.insert(std::upper_bound(slots.begin(), slots.end(), slot, before),
                   slot);
      if (slots.size() > keep) slots.pop_back();
    }
  };
  for (std::int64_t dy = 0; gpRow - dy >= 0 || gpRow + dy + h <= design.numRows;
       ++dy) {
    // A row dy away costs at least dy - 0.5: none past here is within
    // best + 4.5.
    if (!slots.empty() && dy - 1.0 > slots[0].cost + 4.0) break;
    scanRow(gpRow - dy);
    if (dy > 0) scanRow(gpRow + dy);
  }
  return slots;
}

}  // namespace mclg
