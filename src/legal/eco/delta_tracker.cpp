#include "legal/eco/delta_tracker.hpp"

#include <algorithm>
#include <cmath>

namespace mclg {
namespace {

bool sameRect(const Rect& a, const Rect& b) {
  return a.xlo == b.xlo && a.xhi == b.xhi && a.ylo == b.ylo && a.yhi == b.yhi;
}

bool sameTypeTable(const Design& a, const Design& b) {
  if (a.types.size() != b.types.size()) return false;
  for (std::size_t t = 0; t < a.types.size(); ++t) {
    const CellType& ta = a.types[t];
    const CellType& tb = b.types[t];
    if (ta.width != tb.width || ta.height != tb.height ||
        ta.parity != tb.parity || ta.leftEdge != tb.leftEdge ||
        ta.rightEdge != tb.rightEdge) {
      return false;
    }
  }
  return true;
}

bool sameFences(const Design& a, const Design& b) {
  if (a.fences.size() != b.fences.size()) return false;
  for (std::size_t f = 0; f < a.fences.size(); ++f) {
    const auto& ra = a.fences[f].rects;
    const auto& rb = b.fences[f].rects;
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (!sameRect(ra[i], rb[i])) return false;
    }
  }
  return true;
}

}  // namespace

CellEdit classifyEdit(const Cell& current, const Cell& old) {
  if (current.fence != old.fence) return CellEdit::Moved;
  if (current.type != old.type) return CellEdit::Resized;
  if (current.gpX != old.gpX || current.gpY != old.gpY) return CellEdit::Moved;
  if (current.placed != old.placed ||
      (current.placed && (current.x != old.x || current.y != old.y))) {
    return CellEdit::Moved;
  }
  return CellEdit::Clean;
}

std::vector<CellId> DeltaSet::dirtyCells() const {
  std::vector<CellId> out;
  out.reserve(moved.size() + resized.size() + added.size());
  out.insert(out.end(), moved.begin(), moved.end());
  out.insert(out.end(), resized.begin(), resized.end());
  out.insert(out.end(), added.begin(), added.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::vector<CellId>& DeltaTracker::touched() {
  const auto mid = marks_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(mid, marks_.end());
  std::inplace_merge(marks_.begin(), mid, marks_.end());
  marks_.erase(std::unique(marks_.begin(), marks_.end()), marks_.end());
  sorted_ = marks_.size();
  return marks_;
}

DeltaSet DeltaTracker::diff(const Design& current, const Design& snapshot) {
  DeltaSet delta;
  auto structural = [&delta](const char* reason) {
    delta.structural = true;
    delta.structuralReason = reason;
    delta.moved.clear();
    delta.resized.clear();
    delta.added.clear();
    return delta;
  };

  if (current.numSitesX != snapshot.numSitesX ||
      current.numRows != snapshot.numRows) {
    return structural("core dimensions differ");
  }
  if (current.siteWidthFactor != snapshot.siteWidthFactor) {
    return structural("site width factor differs");
  }
  if (!sameTypeTable(current, snapshot)) {
    return structural("cell type table differs");
  }
  if (!sameFences(current, snapshot)) {
    return structural("fence regions differ");
  }
  if (current.numEdgeClasses != snapshot.numEdgeClasses ||
      current.edgeSpacingTable != snapshot.edgeSpacingTable) {
    return structural("edge-spacing table differs");
  }
  if (current.hRails.size() != snapshot.hRails.size() ||
      current.vRails.size() != snapshot.vRails.size()) {
    return structural("P/G rail set differs");
  }
  if (current.numCells() < snapshot.numCells()) {
    return structural("cells were removed");
  }

  for (CellId c = 0; c < snapshot.numCells(); ++c) {
    const Cell& cur = current.cells[c];
    const Cell& old = snapshot.cells[c];
    if (cur.fixed != old.fixed) return structural("fixed flag changed");
    if (cur.fixed) {
      if (cur.x != old.x || cur.y != old.y || cur.type != old.type) {
        return structural("fixed cell edited");
      }
      continue;
    }
    switch (classifyEdit(cur, old)) {
      case CellEdit::Moved:
        delta.moved.push_back(c);
        break;
      case CellEdit::Resized:
        delta.resized.push_back(c);
        break;
      case CellEdit::Clean:
        break;
    }
  }
  for (CellId c = snapshot.numCells(); c < current.numCells(); ++c) {
    if (current.cells[c].fixed) return structural("fixed cell added");
    delta.added.push_back(c);
  }
  return delta;
}

}  // namespace mclg
