// Constraint checkers (paper §2): overlap / core bounds, P/G parity, fence
// containment, edge spacing, and pin access / pin short.
//
// These run over the whole design after legalization; the legalizers use
// their own incremental variants internally, so the checkers double as an
// independent audit of every stage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "db/design.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"

namespace mclg {

struct LegalityReport {
  int unplacedCells = 0;
  int outOfCore = 0;
  int overlaps = 0;        // number of overlapping (unordered) cell pairs
  int parityViolations = 0;
  int fenceViolations = 0;

  bool legal() const {
    return unplacedCells == 0 && outOfCore == 0 && overlaps == 0 &&
           parityViolations == 0 && fenceViolations == 0;
  }
};

/// Hard constraints: all cells placed, inside the core, no overlaps (with
/// movable or fixed cells), P/G parity satisfied, fences respected.
LegalityReport checkLegality(const Design& design, const SegmentMap& segments);

/// The O(Δ) form of checkLegality for a placement that was legal before
/// `cells` changed: true iff every listed cell is placed, inside the core,
/// parity-legal, inside a segment of its fence in every row it spans (so
/// clear of fixed cells) and clear of both neighbours in each of its rows
/// of the occupancy index. When every unlisted movable cell is placed and
/// legal, true implies checkLegality() reports no violation; on false,
/// callers run checkLegality() for the exact report.
bool cellsLegal(const PlacementState& state, const SegmentMap& segments,
                const std::vector<CellId>& cells);

/// Count of adjacent cell pairs violating the edge-spacing table. A pair
/// abutting in several rows counts once.
int countEdgeSpacingViolations(const Design& design);

/// One placed cell (movable or fixed) in a row listing.
struct RowCellEntry {
  std::int64_t x;
  std::int64_t w;
  CellId cell;
  std::int64_t bottomY;
};

/// Per-row listing of all placed cells (movable and fixed), sorted by x.
std::vector<std::vector<RowCellEntry>> buildRowOccupancy(const Design& design);

/// The edge-spacing violations countEdgeSpacingViolations counts at row y:
/// x-adjacent pairs of `row` (row y's cells, sorted by x) closer than the
/// table allows, each pair counted at its lowest shared row only.
int rowEdgeSpacingViolations(const Design& design, std::int64_t y,
                             std::span<const RowCellEntry> row);

struct PinViolationReport {
  int shorts = 0;   // signal pin overlapping a rail/IO pin on its own layer
  int access = 0;   // signal pin overlapping a rail/IO pin on layer+1

  int total() const { return shorts + access; }
};

/// Pin short / access violations against P/G rails and IO pins (paper §2 and
/// Fig. 1). Counted per (cell pin, category); a pin that is both short and
/// inaccessible contributes to both counters.
PinViolationReport countPinViolations(const Design& design);

/// Pin violations of a *candidate* placement of one cell (used by MGL's
/// routability-driven insertion, §3.4). `x`/`y` in sites/rows.
PinViolationReport pinViolationsAt(const Design& design, TypeId type,
                                   std::int64_t x, std::int64_t y);

/// True iff some signal pin of `type` placed at bottom row `y` overlaps a
/// horizontal rail on a conflicting layer — independent of x, so MGL uses
/// it to reject whole insertion rows (§3.4).
bool hasHorizontalRailConflict(const Design& design, TypeId type,
                               std::int64_t y);

/// The set of forbidden x-intervals (in sites, half-open) for `type` at
/// bottom row `y` caused by vertical rails. Sorted, disjoint.
std::vector<Interval> verticalRailForbiddenX(const Design& design, TypeId type,
                                             std::int64_t y);

/// Number of signal pins of `type` at (x, y) overlapping an IO pin on a
/// conflicting layer (short or access). MGL penalizes these instead of
/// rejecting the position outright (§3.4).
int countIoOverlaps(const Design& design, TypeId type, std::int64_t x,
                    std::int64_t y);

/// Forbidden x-intervals (sites, half-open, sorted, disjoint) for `type` at
/// bottom row `y` caused by IO pins on conflicting layers. Together with
/// verticalRailForbiddenX this realizes the §3.4 feasible ranges ("the
/// intersection of the row segment and the P/G rails or IO pins").
std::vector<Interval> ioPinForbiddenX(const Design& design, TypeId type,
                                      std::int64_t y);

/// The unmerged form of ioPinForbiddenX over only the IO pins `ioPins`
/// (indexes into design.ioPins): one x-interval per (signal pin of `type`,
/// conflicting IO pin) pair that can overlap at row `y`, so the number of
/// intervals containing x is countIoOverlaps(design, type, x, y) when
/// `ioPins` holds every IO pin that reaches row y. ForbiddenXIndex
/// (legal/refine/feasible_range.hpp) passes the pins that can reach row y.
std::vector<Interval> ioPinOverlapX(const Design& design, TypeId type,
                                    std::int64_t y,
                                    std::span<const std::int32_t> ioPins);

}  // namespace mclg
