#include "eval/violations.hpp"

#include <algorithm>
#include <sstream>

#include "eval/checkers.hpp"

namespace mclg {
namespace {

struct Collector {
  std::vector<Violation>* out;
  std::size_t limit;

  bool full() const { return limit != 0 && out->size() >= limit; }
  void add(Violation v) {
    if (!full()) out->push_back(std::move(v));
  }
};

Rect cellBox(const Design& design, CellId c) {
  const auto& cell = design.cells[c];
  return {cell.x, cell.y, cell.x + design.widthOf(c),
          cell.y + design.heightOf(c)};
}

}  // namespace

const char* violationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::Unplaced: return "unplaced";
    case ViolationKind::OutOfCore: return "out-of-core";
    case ViolationKind::Overlap: return "overlap";
    case ViolationKind::Parity: return "parity";
    case ViolationKind::Fence: return "fence";
    case ViolationKind::EdgeSpacing: return "edge-spacing";
    case ViolationKind::PinShort: return "pin-short";
    case ViolationKind::PinAccess: return "pin-access";
  }
  return "?";
}

std::vector<Violation> collectViolations(const Design& design,
                                         const SegmentMap& segments,
                                         std::size_t limit) {
  std::vector<Violation> result;
  Collector collect{&result, limit};

  for (CellId c = 0; c < design.numCells() && !collect.full(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed) continue;
    if (!cell.placed) {
      collect.add({ViolationKind::Unplaced, c, kInvalidCell, {},
                   "cell never placed"});
      continue;
    }
    const int h = design.heightOf(c);
    const int w = design.widthOf(c);
    if (cell.x < 0 || cell.y < 0 || cell.x + w > design.numSitesX ||
        cell.y + h > design.numRows) {
      collect.add({ViolationKind::OutOfCore, c, kInvalidCell,
                   cellBox(design, c), "outside the core area"});
      continue;
    }
    if (!design.parityOk(cell.type, cell.y)) {
      collect.add({ViolationKind::Parity, c, kInvalidCell, cellBox(design, c),
                   "P/G parity mismatch at row " + std::to_string(cell.y)});
    }
    if (!segments.spanInFence(cell.y, h, cell.x, w, cell.fence)) {
      collect.add({ViolationKind::Fence, c, kInvalidCell, cellBox(design, c),
                   "outside fence " +
                       design.fences[static_cast<std::size_t>(cell.fence)].name});
    }
    const auto pins = pinViolationsAt(design, cell.type, cell.x, cell.y);
    if (pins.shorts > 0) {
      collect.add({ViolationKind::PinShort, c, kInvalidCell,
                   cellBox(design, c),
                   std::to_string(pins.shorts) + " pin short(s)"});
    }
    if (pins.access > 0) {
      collect.add({ViolationKind::PinAccess, c, kInvalidCell,
                   cellBox(design, c),
                   std::to_string(pins.access) + " pin access conflict(s)"});
    }
  }

  const auto rows = buildRowOccupancy(design);
  for (std::int64_t y = 0; y < design.numRows && !collect.full(); ++y) {
    const auto& row = rows[static_cast<std::size_t>(y)];
    for (std::size_t i = 0; i + 1 < row.size(); ++i) {
      const auto& a = row[i];
      const auto& b = row[i + 1];
      if (y != std::max(a.bottomY, b.bottomY)) continue;  // dedupe per pair
      if (a.x + a.w > b.x) {
        collect.add({ViolationKind::Overlap, a.cell, b.cell,
                     cellBox(design, a.cell).intersect(cellBox(design, b.cell)),
                     "cells overlap in row " + std::to_string(y)});
      } else {
        const std::int64_t gap = b.x - (a.x + a.w);
        const int need = design.spacingBetween(a.cell, b.cell);
        if (gap < need) {
          collect.add(
              {ViolationKind::EdgeSpacing, a.cell, b.cell,
               Rect{a.x + a.w, y, b.x, y + 1},
               "gap " + std::to_string(gap) + " < required " +
                   std::to_string(need)});
        }
      }
    }
  }
  return result;
}

std::string formatViolations(const Design& design,
                             const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const auto& v : violations) {
    out << violationKindName(v.kind) << ": cell " << v.cell;
    if (v.cell != kInvalidCell) {
      out << " (" << design.typeOf(v.cell).name << ")";
    }
    if (v.otherCell != kInvalidCell) {
      out << " vs cell " << v.otherCell << " ("
          << design.typeOf(v.otherCell).name << ")";
    }
    if (!v.where.empty()) {
      out << " at [" << v.where.xlo << "," << v.where.ylo << " - "
          << v.where.xhi << "," << v.where.yhi << ")";
    }
    out << " — " << v.detail << "\n";
  }
  return out.str();
}

}  // namespace mclg
