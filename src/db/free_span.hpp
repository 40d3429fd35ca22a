// Free-space queries: where could a cell of a given fence land without
// pushing anything? `nearestFreeSlots` is the one nearest-gap query, used by
// MGL's last resort, Tetris and Abacus-multi's jam fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "geometry/interval.hpp"

namespace mclg {

/// Maximal intervals of `xWindow` that are (a) inside fence-`fence`
/// segments in every row of [y, y+h) and (b) free of movable cells there.
/// Sorted, disjoint.
std::vector<Interval> freeIntervalsForSpan(const PlacementState& state,
                                           const SegmentMap& segments,
                                           std::int64_t y, int h,
                                           FenceId fence,
                                           const Interval& xWindow);

/// A free, fence-legal spot for a cell: bottom-left (x, y) and its cost
/// swf·|x − gpX| + |y − gpY|.
struct FreeSlot {
  double cost;
  std::int64_t x, y;
};

/// How `nearestFreeSlots` orders equal costs, which are common: rows on one
/// side of the GP differ by whole rows, clamped gaps by multiples of swf.
enum class SlotTieBreak {
  LowerRow,   ///< (cost, y, x)
  NearerRow,  ///< (cost, |y − lround(gpY)|, y, x): the order of the row walk
};

/// The first `maxSlots` free slots for cell `c` by cost, then `ties`; one
/// per `freeIntervalsForSpan` gap inside `xWindow` that fits the cell, with
/// lround(gpX) clamped into the gap. Rows are walked outward from
/// lround(gpY) across the whole core, skipping out-of-core spans and wrong
/// parity, until dy − 1 > best + 4: slot 1 is the core's cheapest, and every
/// slot within best + 4.5 is ranked exactly. Empty when no gap fits.
/// \pre maxSlots >= 1.
std::vector<FreeSlot> nearestFreeSlots(const PlacementState& state,
                                       const SegmentMap& segments, CellId c,
                                       const Interval& xWindow, int maxSlots,
                                       SlotTieBreak ties);

}  // namespace mclg
