// Delta model of the incremental ECO re-legalization subsystem.
//
// Two complementary sources feed the dirty set:
//
//  1. DeltaTracker::diff() compares the *current* design against the last
//     known-legal snapshot (a Design loaded from `--eco-from` or kept
//     in memory by an ECO loop) and classifies each movable cell as clean,
//     moved (GP or legal position differs), resized (different cell type),
//     or added (id beyond the snapshot). Edits the delta model cannot
//     express — removed cells, changed fixed cells/fences/rails/core — are
//     reported as `structural`, which degrades the ECO driver to a full
//     re-legalization.
//
//  2. A live DeltaTracker registered as the PlacementState listener records
//     every cell the incremental stages themselves touch (displacement
//     spill: a dirty cell's insertion chain-pushes clean neighbors), so
//     stage 3 re-optimizes exactly the regions stage 1 disturbed.
#pragma once

#include <string>
#include <vector>

#include "db/design.hpp"
#include "db/placement_state.hpp"

namespace mclg {

/// Classified difference between a current design and its legal snapshot.
struct DeltaSet {
  std::vector<CellId> moved;    ///< GP or legal position differs
  std::vector<CellId> resized;  ///< cell type (footprint) differs
  std::vector<CellId> added;    ///< ids beyond the snapshot's cell count
  /// The designs differ in a way the delta model cannot express (cells
  /// removed, fixed cells / fences / rails / core / type table changed).
  /// The ECO driver falls back to a full run when set.
  bool structural = false;
  std::string structuralReason;  ///< first incompatibility found

  bool empty() const {
    return moved.empty() && resized.empty() && added.empty() && !structural;
  }
  /// All dirty cell ids, ascending, deduplicated.
  std::vector<CellId> dirtyCells() const;
};

/// How a movable cell differs from `old`, its value in the last legal
/// snapshot. A fence reassignment invalidates the cell's legal position
/// but not the rest of the design, so it counts as a move; a type change is
/// a resize; a changed GP target, or a legal position that was lost or
/// edited directly, is a move.
enum class CellEdit { Clean, Moved, Resized };
CellEdit classifyEdit(const Cell& current, const Cell& old);

/// Touched-cell recorder, attachable to a PlacementState.
///
/// mark() appends the cell to a list (a repeat of the last mark is
/// skipped), so a tracker costs what its marks cost, never the design's
/// size; touched() sorts and dedups that list, so the collected set does
/// not depend on the order in which cells were marked. Not thread-safe:
/// every mark comes from the thread that mutates the state, as the
/// PlacementListener contract has it. PlacementState has one listener
/// slot, so a tracker forwards every notification to `next` (the listener
/// it displaced, e.g. a serve session's undo log) when one is given.
class DeltaTracker final : public PlacementListener {
 public:
  explicit DeltaTracker(PlacementListener* next = nullptr) : next_(next) {}

  /// Clear all marks.
  void reset() { marks_.clear(); sorted_ = 0; }

  void beforeChange(CellId c) override {
    if (next_ != nullptr) next_->beforeChange(c);
  }
  void onPlace(CellId c) override {
    mark(c);
    if (next_ != nullptr) next_->onPlace(c);
  }
  void onRemove(CellId c) override {
    mark(c);
    if (next_ != nullptr) next_->onRemove(c);
  }
  void onShift(CellId c) override {
    mark(c);
    if (next_ != nullptr) next_->onShift(c);
  }
  /// Explicit mark for edits the listener cannot observe (ECO cell adds,
  /// GP-position updates applied directly to the Design).
  void mark(CellId c) {
    if (marks_.empty() || marks_.back() != c) marks_.push_back(c);
  }

  /// Ids marked since the last reset, ascending and unique. Valid until the
  /// next mark or reset. O(new marks · log) after the first call.
  const std::vector<CellId>& touched();

  /// Classify `current` against the legal `snapshot`. Pure function of the
  /// two designs; see DeltaSet for the categories and the structural rules.
  /// \pre  none — any pair of designs is accepted.
  /// \post result.structural implies the ECO driver must not trust the
  ///       per-cell lists (they are left empty on structural mismatch).
  static DeltaSet diff(const Design& current, const Design& snapshot);

 private:
  // marks_[0, sorted_) is ascending and unique; later marks are raw.
  std::vector<CellId> marks_;
  std::size_t sorted_ = 0;
  PlacementListener* next_ = nullptr;
};

}  // namespace mclg
