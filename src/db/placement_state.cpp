#include "db/placement_state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mclg {

bool RowOccupancy::emplace(std::int64_t x, CellId c) {
  const auto it = lower_bound(x);
  if (it != end() && it->first == x) return false;
  cells_.insert(it, {x, c});
  return true;
}

void RowOccupancy::move(const_iterator it, std::int64_t newX) {
  const auto i = static_cast<std::size_t>(it - begin());
  const bool keepsRank = (i == 0 || cells_[i - 1].first < newX) &&
                         (i + 1 == cells_.size() || newX < cells_[i + 1].first);
  if (keepsRank) {
    cells_[i].first = newX;
    return;
  }
  const CellId c = it->second;
  erase(it);
  emplace(newX, c);
}

PlacementState::PlacementState(Design& design) : design_(&design) {
  rows_.resize(static_cast<std::size_t>(design.numRows));
  spanning_.assign(static_cast<std::size_t>(design.numRows), 0);
  // Re-index an already-placed design (e.g. loaded from a file): append in
  // cell order, then sort each row once. Sorting by (x, cell) and keeping
  // the first of each x is what inserting in cell order would have kept.
  for (CellId c = 0; c < design.numCells(); ++c) {
    auto& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const int h = design.heightOf(c);
    for (std::int64_t y = cell.y; y < cell.y + h; ++y) {
      rows_[static_cast<std::size_t>(y)].cells_.emplace_back(cell.x, c);
      if (y + 1 < cell.y + h) ++spanning_[static_cast<std::size_t>(y)];
    }
    ++numPlaced_;
  }
  for (auto& row : rows_) {
    auto& cells = row.cells_;
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                cells.end());
  }
  relistUnplaced();
}

void PlacementState::listUnplaced(CellId c) {
  const auto c1 = static_cast<std::size_t>(c);
  if (c1 >= unplacedSlot_.size()) unplacedSlot_.resize(c1 + 1, -1);
  if (unplacedSlot_[c1] >= 0) return;
  unplacedSlot_[c1] = static_cast<int>(unplaced_.size());
  unplaced_.push_back(c);
}

void PlacementState::unlistUnplaced(CellId c) {
  const auto c1 = static_cast<std::size_t>(c);
  if (c1 >= unplacedSlot_.size() || unplacedSlot_[c1] < 0) return;
  const CellId last = unplaced_.back();
  unplaced_[static_cast<std::size_t>(unplacedSlot_[c1])] = last;
  unplacedSlot_[static_cast<std::size_t>(last)] = unplacedSlot_[c1];
  unplaced_.pop_back();
  unplacedSlot_[c1] = -1;
}

void PlacementState::relistUnplaced() {
  for (const CellId c : unplaced_) {
    unplacedSlot_[static_cast<std::size_t>(c)] = -1;
  }
  unplaced_.clear();
  listedCells_ = design_->numCells();
  for (CellId c = 0; c < listedCells_; ++c) {
    const Cell& cell = design_->cells[c];
    if (!cell.fixed && !cell.placed) listUnplaced(c);
  }
}

std::vector<CellId> PlacementState::unplacedCells() {
  const int numCells = design_->numCells();
  for (CellId c = listedCells_; c < numCells; ++c) {
    const Cell& cell = design_->cells[c];
    if (!cell.fixed && !cell.placed) listUnplaced(c);
  }
  listedCells_ = numCells;
  std::vector<CellId> out;
  out.reserve(unplaced_.size());
  for (std::size_t i = 0; i < unplaced_.size();) {
    const CellId c = unplaced_[i];
    // Truncated from the design (and maybe re-appended as another cell).
    if (c >= numCells || design_->cells[c].fixed ||
        design_->cells[c].placed) {
      unlistUnplaced(c);
      continue;
    }
    out.push_back(c);
    ++i;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PlacementState::place(CellId c, std::int64_t x, std::int64_t y) {
  auto& cell = design_->cells[c];
  MCLG_ASSERT(!cell.fixed, "cannot place a fixed cell");
  MCLG_ASSERT(!cell.placed, "cell is already placed");
  const int h = design_->heightOf(c);
  const int w = design_->widthOf(c);
  MCLG_ASSERT(y >= 0 && y + h <= design_->numRows, "row span outside core");
  MCLG_ASSERT(x >= 0 && x + w <= design_->numSitesX, "site span outside core");
  MCLG_ASSERT(spanEmpty(y, h, x, w), "placement overlaps an existing cell");
  if (listener_ != nullptr) listener_->beforeChange(c);
  for (std::int64_t row = y; row < y + h; ++row) {
    rows_[static_cast<std::size_t>(row)].emplace(x, c);
    if (row + 1 < y + h) ++spanning_[static_cast<std::size_t>(row)];
  }
  cell.x = x;
  cell.y = y;
  cell.placed = true;
  ++numPlaced_;
  unlistUnplaced(c);
  if (listener_ != nullptr) listener_->onPlace(c);
}

void PlacementState::remove(CellId c) {
  auto& cell = design_->cells[c];
  MCLG_ASSERT(cell.placed, "removing a cell that is not placed");
  if (listener_ != nullptr) listener_->beforeChange(c);
  const int h = design_->heightOf(c);
  for (std::int64_t row = cell.y; row < cell.y + h; ++row) {
    auto& rowMap = rows_[static_cast<std::size_t>(row)];
    auto it = rowMap.find(cell.x);
    MCLG_ASSERT(it != rowMap.end() && it->second == c,
                "occupancy index out of sync");
    rowMap.erase(it);
    if (row + 1 < cell.y + h) --spanning_[static_cast<std::size_t>(row)];
  }
  cell.placed = false;
  --numPlaced_;
  listUnplaced(c);
  if (listener_ != nullptr) listener_->onRemove(c);
}

void PlacementState::shiftX(CellId c, std::int64_t newX) {
  auto& cell = design_->cells[c];
  MCLG_ASSERT(cell.placed, "shifting a cell that is not placed");
  if (newX == cell.x) return;
  const int h = design_->heightOf(c);
  const int w = design_->widthOf(c);
  MCLG_ASSERT(newX >= 0 && newX + w <= design_->numSitesX,
              "shift outside core");
  if (listener_ != nullptr) listener_->beforeChange(c);
  for (std::int64_t row = cell.y; row < cell.y + h; ++row) {
    auto& rowMap = rows_[static_cast<std::size_t>(row)];
    auto it = rowMap.find(cell.x);
    MCLG_ASSERT(it != rowMap.end() && it->second == c,
                "occupancy index out of sync");
    rowMap.move(it, newX);
  }
  cell.x = newX;
  if (listener_ != nullptr) listener_->onShift(c);
}

PlacementSnapshot PlacementState::snapshot() const {
  PlacementSnapshot snap;
  snap.cells.resize(design_->cells.size());
  for (std::size_t c = 0; c < design_->cells.size(); ++c) {
    const auto& cell = design_->cells[c];
    snap.cells[c] = {cell.x, cell.y, cell.placed};
  }
  snap.rows = rows_;
  snap.spanning = spanning_;
  snap.numPlaced = numPlaced_.load(std::memory_order_relaxed);
  return snap;
}

void PlacementState::restore(const PlacementSnapshot& snap) {
  MCLG_ASSERT(snap.cells.size() == design_->cells.size(),
              "snapshot is from a different design");
  for (std::size_t c = 0; c < design_->cells.size(); ++c) {
    auto& cell = design_->cells[c];
    if (cell.fixed) continue;
    cell.x = snap.cells[c].x;
    cell.y = snap.cells[c].y;
    cell.placed = snap.cells[c].placed;
  }
  rows_ = snap.rows;
  spanning_ = snap.spanning;
  numPlaced_.store(snap.numPlaced, std::memory_order_relaxed);
  relistUnplaced();
}

CellId PlacementState::cellAt(std::int64_t y, std::int64_t x) const {
  if (y < 0 || y >= design_->numRows) return kInvalidCell;
  const auto& rowMap = rows_[static_cast<std::size_t>(y)];
  auto it = rowMap.upper_bound(x);
  if (it == rowMap.begin()) return kInvalidCell;
  --it;
  const CellId c = it->second;
  return it->first + design_->widthOf(c) > x ? c : kInvalidCell;
}

bool PlacementState::spanEmpty(std::int64_t y, int h, std::int64_t x, int w,
                               CellId ignore) const {
  for (std::int64_t row = y; row < y + h; ++row) {
    if (row < 0 || row >= design_->numRows) return false;
    const auto& rowMap = rows_[static_cast<std::size_t>(row)];
    // First cell whose left edge is < x+w; walk left while overlapping.
    auto it = rowMap.lower_bound(x + w);
    while (it != rowMap.begin()) {
      --it;
      const CellId c = it->second;
      if (it->first + design_->widthOf(c) <= x) break;
      if (c != ignore) return false;
    }
  }
  return true;
}

void PlacementState::collectInRect(const Rect& rect,
                                   std::vector<CellId>& out) const {
  out.clear();
  const std::int64_t yLo = std::max<std::int64_t>(0, rect.ylo);
  const std::int64_t yHi = std::min(design_->numRows, rect.yhi);
  for (std::int64_t y = yLo; y < yHi; ++y) {
    const auto& rowMap = rows_[static_cast<std::size_t>(y)];
    auto it = rowMap.lower_bound(rect.xlo);
    // Step back once: a cell starting left of xlo may still overlap.
    if (it != rowMap.begin()) {
      auto prev = std::prev(it);
      if (prev->first + design_->widthOf(prev->second) > rect.xlo) it = prev;
    }
    for (; it != rowMap.end() && it->first < rect.xhi; ++it) {
      const CellId c = it->second;
      // Report each multi-row cell once, at its bottom row inside the rect.
      const std::int64_t bottomVisible =
          std::max<std::int64_t>(design_->cells[c].y, yLo);
      if (bottomVisible == y) out.push_back(c);
    }
  }
}

}  // namespace mclg
