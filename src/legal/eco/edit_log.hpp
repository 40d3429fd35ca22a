// Undo log of a resident design that is edited in place: the transaction
// mechanism of the serve session (flow/serve/serve_session.hpp), which
// keeps one Design, one PlacementState and one SegmentMap alive for the
// tenant's lifetime instead of copying the design per request.
//
// The log has two levels. The *request* level holds every cell edited since
// the current request began, as it was at that point (its first-touch
// value: GP target, type, fence, placed, x, y), plus the request's starting
// cell count. The *commit* level holds the same relative to the last
// commit. Placement changes are captured through
// PlacementListener::beforeChange — the log is the state's listener while a
// request runs (an ECO DeltaTracker forwards to it) — and direct edits of a
// cell's GP target or type through record(). Undoing a level writes its
// entries' priors back through the state and drops the cells added since
// the level began: O(cells it touched), never O(design).
//
// Invariant: the design equals its value at the last commit with every
// commit-level entry applied on top, and its value at the start of the
// current request with every request-level entry applied on top.
#pragma once

#include <vector>

#include "db/design.hpp"
#include "db/placement_state.hpp"

namespace mclg {

class EditLog final : public PlacementListener {
 public:
  /// Start logging `design` with both levels empty (its current value is
  /// the committed one).
  explicit EditLog(const Design& design);

  void beforeChange(CellId c) override { record(c); }
  void onPlace(CellId) override {}
  void onRemove(CellId) override {}
  void onShift(CellId) override {}

  /// Open a request: its level starts empty at the current cell count.
  void beginRequest();

  /// Log cell c's current value as its request-level prior unless it is
  /// already logged or was added by this request. Call before editing the
  /// cell directly.
  void record(CellId c);

  /// The request succeeded: fold its entries into the commit level.
  void acceptRequest();
  /// The request failed: restore every cell it touched, drop the cells it
  /// added, and leave `state` exactly as it was when the request began.
  void undoRequest(PlacementState& state);
  /// Rollback: restore the placement of the last commit.
  void undoCommit(PlacementState& state);
  /// Commit: the current design becomes the committed one.
  void commit();

  /// Cells the current request changed or added, ascending.
  std::vector<CellId> requestChanges() const;
  /// Cells changed or added since the last commit, ascending.
  std::vector<CellId> commitChanges() const;

  int requestStartCells() const { return request_.cells; }
  int committedCells() const { return commit_.cells; }
  /// Cell c as it was when the request began. \pre c < requestStartCells().
  const Cell& atRequestStart(CellId c) const;
  /// Cell c as it was at the last commit. \pre c < committedCells().
  const Cell& atCommit(CellId c) const;

 private:
  struct Entry {
    CellId cell;
    Cell prior;
  };
  struct Level {
    std::vector<Entry> entries;
    std::vector<int> slot;  // CellId -> index into entries, -1 if none
    int cells = 0;          // cell count when the level began
  };

  static const Entry* find(const Level& level, CellId c);
  static void clear(Level& level);
  void undo(Level& level, PlacementState& state);

  const Design* design_;
  Level request_;
  Level commit_;
};

}  // namespace mclg
