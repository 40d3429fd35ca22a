#include "eval/checkers.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "util/assert.hpp"

namespace mclg {
namespace {

std::int64_t floorDiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return -floorDiv(-a, b);
}

/// Sorts half-open intervals and merges overlapping or touching ones.
std::vector<Interval> mergeIntervals(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  for (const auto& iv : intervals) {
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

/// Does `pin` placed with its owner's bottom-left at fine coords (fx, fy)
/// conflict with the rail/IO layer `objLayer`? Short: same layer; access:
/// object one layer above the pin.
bool layerConflicts(int pinLayer, int objLayer, bool* isShort) {
  if (objLayer == pinLayer) {
    *isShort = true;
    return true;
  }
  if (objLayer == pinLayer + 1) {
    *isShort = false;
    return true;
  }
  return false;
}

/// checkLegality's per-cell tests (everything but overlaps) for cell c.
LegalityReport cellLegality(const Design& design, const SegmentMap& segments,
                            CellId c) {
  LegalityReport report;
  const auto& cell = design.cells[c];
  if (cell.fixed) return report;
  if (!cell.placed) {
    ++report.unplacedCells;
    return report;
  }
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  if (cell.x < 0 || cell.y < 0 || cell.x + w > design.numSitesX ||
      cell.y + h > design.numRows) {
    ++report.outOfCore;
    return report;
  }
  if (!design.parityOk(cell.type, cell.y)) ++report.parityViolations;
  if (!segments.spanInFence(cell.y, h, cell.x, w, cell.fence)) {
    ++report.fenceViolations;
  }
  return report;
}

}  // namespace

std::vector<std::vector<RowCellEntry>> buildRowOccupancy(const Design& design) {
  std::vector<std::vector<RowCellEntry>> rows(
      static_cast<std::size_t>(design.numRows));
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (!cell.fixed && !cell.placed) continue;
    const int h = design.heightOf(c);
    for (std::int64_t y = cell.y; y < cell.y + h; ++y) {
      if (y < 0 || y >= design.numRows) continue;
      rows[static_cast<std::size_t>(y)].push_back(
          {cell.x, design.widthOf(c), c, cell.y});
    }
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(),
              [](const RowCellEntry& a, const RowCellEntry& b) {
                return a.x < b.x;
              });
  }
  return rows;
}

LegalityReport checkLegality(const Design& design, const SegmentMap& segments) {
  LegalityReport report;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const LegalityReport cell = cellLegality(design, segments, c);
    report.unplacedCells += cell.unplacedCells;
    report.outOfCore += cell.outOfCore;
    report.parityViolations += cell.parityViolations;
    report.fenceViolations += cell.fenceViolations;
  }

  const auto rows = buildRowOccupancy(design);
  for (std::int64_t y = 0; y < design.numRows; ++y) {
    const auto& row = rows[static_cast<std::size_t>(y)];
    for (std::size_t i = 0; i + 1 < row.size(); ++i) {
      const auto& a = row[i];
      const auto& b = row[i + 1];
      if (a.x + a.w > b.x) {
        // Count each overlapping pair once, at the lowest shared row.
        if (y == std::max(a.bottomY, b.bottomY)) ++report.overlaps;
      }
    }
  }
  return report;
}

bool cellsLegal(const PlacementState& state, const SegmentMap& segments,
                const std::vector<CellId>& cells) {
  const Design& design = state.design();
  for (const CellId c : cells) {
    const Cell& cell = design.cells[c];
    if (cell.fixed) continue;
    if (!cellLegality(design, segments, c).legal()) return false;
    const int h = design.heightOf(c);
    const int w = design.widthOf(c);
    for (std::int64_t y = cell.y; y < cell.y + h; ++y) {
      const auto& row = state.rowCells(y);
      const auto it = row.find(cell.x);
      if (it == row.end() || it->second != c) return false;
      if (it != row.begin()) {
        const auto prev = std::prev(it);
        if (prev->first + design.widthOf(prev->second) > cell.x) return false;
      }
      const auto next = std::next(it);
      if (next != row.end() && next->first < cell.x + w) return false;
    }
  }
  return true;
}

int countEdgeSpacingViolations(const Design& design) {
  const auto rows = buildRowOccupancy(design);
  int violations = 0;
  for (std::int64_t y = 0; y < design.numRows; ++y) {
    violations += rowEdgeSpacingViolations(design, y,
                                           rows[static_cast<std::size_t>(y)]);
  }
  return violations;
}

int rowEdgeSpacingViolations(const Design& design, std::int64_t y,
                             std::span<const RowCellEntry> row) {
  int violations = 0;
  for (std::size_t i = 0; i + 1 < row.size(); ++i) {
    const auto& a = row[i];
    const auto& b = row[i + 1];
    const std::int64_t gap = b.x - (a.x + a.w);
    const int need = design.spacingBetween(a.cell, b.cell);
    if (gap >= 0 && gap < need) {
      if (y == std::max(a.bottomY, b.bottomY)) ++violations;
    }
  }
  return violations;
}

PinViolationReport pinViolationsAt(const Design& design, TypeId type,
                                   std::int64_t x, std::int64_t y) {
  PinViolationReport report;
  const auto& cellType = design.types[static_cast<std::size_t>(type)];
  const std::int64_t fx = x * Design::kFine;
  const std::int64_t fy = y * Design::kFine;
  const Orient orient = design.orientationAt(type, y);
  for (const auto& pin : cellType.pins) {
    const Rect abs = pin.rectInOrient(orient, cellType.height).shifted(fx, fy);
    bool isShort = false;

    // Horizontal rails: sorted by yFineLo; rails are thin, so scan the
    // window overlapping [abs.ylo, abs.yhi).
    {
      auto it = std::lower_bound(
          design.hRails.begin(), design.hRails.end(), abs.ylo,
          [](const HRail& r, std::int64_t v) { return r.yFineHi <= v; });
      for (; it != design.hRails.end() && it->yFineLo < abs.yhi; ++it) {
        if (layerConflicts(pin.layer, it->layer, &isShort)) {
          (isShort ? report.shorts : report.access) += 1;
        }
      }
    }
    // Vertical rails: sorted by xFineLo.
    {
      auto it = std::lower_bound(
          design.vRails.begin(), design.vRails.end(), abs.xlo,
          [](const VRail& r, std::int64_t v) { return r.xFineHi <= v; });
      for (; it != design.vRails.end() && it->xFineLo < abs.xhi; ++it) {
        if (layerConflicts(pin.layer, it->layer, &isShort)) {
          (isShort ? report.shorts : report.access) += 1;
        }
      }
    }
    // IO pins: sorted by rect.xlo; bounded-width backward scan.
    {
      auto it = std::lower_bound(
          design.ioPins.begin(), design.ioPins.end(), abs.xhi,
          [](const IoPin& p, std::int64_t v) { return p.rect.xlo < v; });
      while (it != design.ioPins.begin()) {
        --it;
        if (it->rect.xhi <= abs.xlo) {
          // Sorted by xlo only; earlier pins may still reach abs if they are
          // wide, but our generators emit fixed-width IO pins, so a bounded
          // look-back suffices. Be conservative: stop after the look-back
          // window of the widest IO pin.
          if (abs.xlo - it->rect.xlo > design.maxIoPinWidthFine()) break;
          continue;
        }
        if (it->rect.overlaps(abs) &&
            layerConflicts(pin.layer, it->layer, &isShort)) {
          (isShort ? report.shorts : report.access) += 1;
        }
      }
    }
  }
  return report;
}

PinViolationReport countPinViolations(const Design& design) {
  PinViolationReport total;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const PinViolationReport r =
        pinViolationsAt(design, cell.type, cell.x, cell.y);
    total.shorts += r.shorts;
    total.access += r.access;
  }
  return total;
}

bool hasHorizontalRailConflict(const Design& design, TypeId type,
                               std::int64_t y) {
  const auto& cellType = design.types[static_cast<std::size_t>(type)];
  const std::int64_t fy = y * Design::kFine;
  const Orient orient = design.orientationAt(type, y);
  for (const auto& pin : cellType.pins) {
    const Rect oriented = pin.rectInOrient(orient, cellType.height);
    const std::int64_t ylo = oriented.ylo + fy;
    const std::int64_t yhi = oriented.yhi + fy;
    auto it = std::lower_bound(
        design.hRails.begin(), design.hRails.end(), ylo,
        [](const HRail& r, std::int64_t v) { return r.yFineHi <= v; });
    for (; it != design.hRails.end() && it->yFineLo < yhi; ++it) {
      bool isShort = false;
      if (layerConflicts(pin.layer, it->layer, &isShort)) return true;
    }
  }
  return false;
}

int countIoOverlaps(const Design& design, TypeId type, std::int64_t x,
                    std::int64_t y) {
  int count = 0;
  const auto& cellType = design.types[static_cast<std::size_t>(type)];
  const std::int64_t fx = x * Design::kFine;
  const std::int64_t fy = y * Design::kFine;
  const Orient orient = design.orientationAt(type, y);
  for (const auto& pin : cellType.pins) {
    const Rect abs = pin.rectInOrient(orient, cellType.height).shifted(fx, fy);
    auto it = std::lower_bound(
        design.ioPins.begin(), design.ioPins.end(), abs.xhi,
        [](const IoPin& p, std::int64_t v) { return p.rect.xlo < v; });
    while (it != design.ioPins.begin()) {
      --it;
      if (it->rect.xhi <= abs.xlo) {
        if (abs.xlo - it->rect.xlo > design.maxIoPinWidthFine()) break;
        continue;
      }
      bool isShort = false;
      if (it->rect.overlaps(abs) &&
          layerConflicts(pin.layer, it->layer, &isShort)) {
        ++count;
      }
    }
  }
  return count;
}

std::vector<Interval> ioPinOverlapX(const Design& design, TypeId type,
                                    std::int64_t y,
                                    std::span<const std::int32_t> ioPins) {
  std::vector<Interval> overlaps;
  const auto& cellType = design.types[static_cast<std::size_t>(type)];
  const std::int64_t fy = y * Design::kFine;
  const Orient orient = design.orientationAt(type, y);
  for (const auto& pin : cellType.pins) {
    const Rect shape = pin.rectInOrient(orient, cellType.height);
    const std::int64_t ylo = shape.ylo + fy;
    const std::int64_t yhi = shape.yhi + fy;
    for (const std::int32_t i : ioPins) {
      const IoPin& io = design.ioPins[static_cast<std::size_t>(i)];
      bool isShort = false;
      if (!layerConflicts(pin.layer, io.layer, &isShort)) continue;
      if (io.rect.yhi <= ylo || io.rect.ylo >= yhi) continue;
      // x overlap iff x*kFine + shape.xlo < io.xhi && io.xlo < x*kFine +
      // shape.xhi.
      const std::int64_t loX =
          floorDiv(io.rect.xlo - shape.xhi, Design::kFine) + 1;
      const std::int64_t hiX =
          ceilDiv(io.rect.xhi - shape.xlo, Design::kFine) - 1;
      if (loX <= hiX) overlaps.push_back({loX, hiX + 1});
    }
  }
  return overlaps;
}

std::vector<Interval> ioPinForbiddenX(const Design& design, TypeId type,
                                      std::int64_t y) {
  std::vector<std::int32_t> all(design.ioPins.size());
  std::iota(all.begin(), all.end(), 0);
  return mergeIntervals(ioPinOverlapX(design, type, y, all));
}

std::vector<Interval> verticalRailForbiddenX(const Design& design, TypeId type,
                                             std::int64_t /*y*/) {
  // A vertical flip (FS) leaves every pin's x extent unchanged, so the
  // forbidden intervals are orientation- (and hence y-) independent.
  std::vector<Interval> forbidden;
  const auto& cellType = design.types[static_cast<std::size_t>(type)];
  for (const auto& pin : cellType.pins) {
    for (const auto& rail : design.vRails) {
      bool isShort = false;
      if (!layerConflicts(pin.layer, rail.layer, &isShort)) continue;
      // Overlap iff x*kFine + pin.xlo < rail.xhi && rail.xlo < x*kFine +
      // pin.xhi, i.e. x in (lo, hi) over the reals.
      const std::int64_t loX =
          floorDiv(rail.xFineLo - pin.rect.xhi, Design::kFine) + 1;
      const std::int64_t hiX =
          ceilDiv(rail.xFineHi - pin.rect.xlo, Design::kFine) - 1;
      if (loX <= hiX) forbidden.push_back({loX, hiX + 1});
    }
  }
  return mergeIntervals(std::move(forbidden));
}

}  // namespace mclg
