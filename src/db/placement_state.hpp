// Mutable occupancy index over a Design: which movable cell occupies which
// sites of which rows. Legalizers mutate placements exclusively through
// this class so the per-row ordered indices stay consistent with the cells'
// coordinates. Each row is a flat array of (left site, cell) pairs sorted
// by x (RowOccupancy), not a node-based map: the search loops walk rows
// far more often than cells move.
//
// Fixed cells are *not* tracked here — they are carved out of the free area
// by SegmentMap, which keeps every query in this class about movable cells
// only.
#pragma once

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "db/design.hpp"
#include "geometry/rect.hpp"

namespace mclg {

/// Observer of placement mutations. A registered listener is notified after
/// every successful place()/remove()/shiftX() — the hook the ECO
/// DeltaTracker (legal/eco/) uses to record which cells an incremental
/// stage touched — and beforeChange() runs just before each of them
/// mutates the cell, while it still holds its prior coordinates (the hook
/// an undo log records first-touch values with).
///
/// Threading: every mutating stage runs on one thread (MGL is serial), so
/// callbacks arrive in order from that thread. restore() deliberately does
/// not notify (a snapshot rollback is outside the delta model; callers
/// re-diff instead): every cell it changes back was notified when it
/// changed after the snapshot.
class PlacementListener {
 public:
  virtual ~PlacementListener() = default;
  virtual void beforeChange(CellId /*c*/) {}
  virtual void onPlace(CellId c) = 0;
  virtual void onRemove(CellId c) = 0;
  virtual void onShift(CellId c) = 0;
};

/// Ordered occupancy of one row: (left site, cell) pairs, ascending and
/// unique in x, in one flat vector. It offers the part of the
/// std::map<x, cell> interface the row walkers use (ordered iteration,
/// lower_bound / upper_bound / find by x, ==) with the map's semantics:
/// emplace() leaves a taken x alone.
class RowOccupancy {
 public:
  using value_type = std::pair<std::int64_t, CellId>;
  using const_iterator = std::vector<value_type>::const_iterator;
  using iterator = const_iterator;

  const_iterator begin() const { return cells_.begin(); }
  const_iterator end() const { return cells_.end(); }
  std::size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }

  /// First entry with left site >= x.
  const_iterator lower_bound(std::int64_t x) const {
    return std::lower_bound(
        cells_.begin(), cells_.end(), x,
        [](const value_type& e, std::int64_t v) { return e.first < v; });
  }
  /// First entry with left site > x.
  const_iterator upper_bound(std::int64_t x) const {
    return std::upper_bound(
        cells_.begin(), cells_.end(), x,
        [](std::int64_t v, const value_type& e) { return v < e.first; });
  }
  /// The entry with left site x, or end().
  const_iterator find(std::int64_t x) const {
    const auto it = lower_bound(x);
    return it != end() && it->first == x ? it : end();
  }

  /// Insert (x, c) unless x is taken. True iff inserted.
  bool emplace(std::int64_t x, CellId c);
  void erase(const_iterator it) { cells_.erase(it); }
  /// Re-key the entry at `it` to newX: erase + emplace, done in place when
  /// the entry keeps its rank (the common case: a push moves a cell
  /// between its neighbours).
  void move(const_iterator it, std::int64_t newX);

  bool operator==(const RowOccupancy&) const = default;

 private:
  friend class PlacementState;
  std::vector<value_type> cells_;
};

/// Value snapshot of a PlacementState: per-cell coordinates/placed flags of
/// the movable cells plus the row occupancy arrays. Captured before a
/// pipeline stage runs so the stage can be rolled back transactionally
/// (legal/guard/); restore() brings both the Design's cells and the
/// occupancy index back to the exact captured state.
struct PlacementSnapshot {
  struct CellPos {
    std::int64_t x = -1;
    std::int64_t y = -1;
    bool placed = false;

    bool operator==(const CellPos&) const = default;
  };
  std::vector<CellPos> cells;  // indexed by CellId; fixed cells included
  std::vector<RowOccupancy> rows;
  std::vector<int> spanning;  // PlacementState::cellsSpanning per row
  int numPlaced = 0;

  bool operator==(const PlacementSnapshot&) const = default;
};

class PlacementState {
 public:
  explicit PlacementState(Design& design);

  Design& design() { return *design_; }
  const Design& design() const { return *design_; }

  /// Place cell c with bottom-left site (x, y). The span must be empty.
  void place(CellId c, std::int64_t x, std::int64_t y);

  /// Remove cell c from the index (keeps its coordinates for reference).
  void remove(CellId c);

  /// Move an already-placed cell horizontally within its rows.
  void shiftX(CellId c, std::int64_t newX);

  /// Cell covering site x of row y, or kInvalidCell.
  CellId cellAt(std::int64_t y, std::int64_t x) const;

  /// True iff no movable cell overlaps [x, x+w) × [y, y+h), ignoring
  /// `ignore` if given.
  bool spanEmpty(std::int64_t y, int h, std::int64_t x, int w,
                 CellId ignore = kInvalidCell) const;

  /// All distinct movable cells intersecting the rect (site×row units),
  /// in increasing (row-major, then x) discovery order without duplicates.
  void collectInRect(const Rect& rect, std::vector<CellId>& out) const;

  /// Ordered occupancy of one row: left-site -> cell id.
  const RowOccupancy& rowCells(std::int64_t y) const {
    return rows_[static_cast<std::size_t>(y)];
  }

  /// Number of placed movable cells occupying both row y and row y + 1 —
  /// the multi-row cells that chain the two rows' orders together.
  int cellsSpanning(std::int64_t y) const {
    return spanning_[static_cast<std::size_t>(y)];
  }

  /// Number of placed movable cells. (Atomic, so another thread may read it
  /// while a stage places cells.)
  int numPlaced() const { return numPlaced_.load(std::memory_order_relaxed); }

  /// Every movable cell of the design that is not placed, ascending — the
  /// cells MGL legalizes — without a scan of the design: construction and
  /// restore() list the unplaced cells, place() and remove() keep the list,
  /// and a call adds the movable cells appended to the design since the
  /// previous one and drops the ids it truncated (or that were truncated
  /// and re-appended as other cells). O(unplaced + appended).
  /// \pre every placement change went through this state, cells were only
  ///      appended to or truncated from the design, and no fixed cell's id
  ///      was truncated and re-used for a movable cell.
  std::vector<CellId> unplacedCells();

  /// Capture the full placement (cell coordinates + occupancy index) for a
  /// later transactional restore(). Cost: one copy of the row arrays.
  PlacementSnapshot snapshot() const;

  /// Roll back to a snapshot taken on this state. Restores movable cells'
  /// x/y/placed and the occupancy index exactly; fixed cells are untouched
  /// (they never move). Does not notify the listener.
  void restore(const PlacementSnapshot& snap);

  /// Register (or clear, with nullptr) the mutation listener. The listener
  /// outlives the registration window; notifications fire after the
  /// mutation has been applied.
  void setListener(PlacementListener* listener) { listener_ = listener; }
  PlacementListener* listener() const { return listener_; }

 private:
  void listUnplaced(CellId c);
  void unlistUnplaced(CellId c);
  /// Re-list every unplaced movable cell of the design.
  void relistUnplaced();

  Design* design_;
  std::vector<RowOccupancy> rows_;
  std::vector<int> spanning_;  // see cellsSpanning
  std::atomic<int> numPlaced_{0};
  PlacementListener* listener_ = nullptr;
  // unplacedCells(): the listed cells, each cell's index in the list (-1
  // when unlisted), and the design's cell count the list has seen.
  std::vector<CellId> unplaced_;
  std::vector<int> unplacedSlot_;
  int listedCells_ = 0;
};

}  // namespace mclg
