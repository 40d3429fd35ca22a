// Resident, incrementally maintained terms of the Eq. 10 score (score.hpp)
// for a placement that changes a few cells at a time — the serve session's
// per-request score.
//
// evaluateScore() walks the whole design: pin violations per cell, edge
// spacing per row, HPWL per net, legality per cell and row. ScoreTerms
// keeps each of those as integer counters (pin shorts/access per cell,
// edge-spacing violations per row) or per-net doubles (HPWL at the legal
// and at the GP position), and refresh() re-derives only what a set of
// changed cells can affect. evaluate() then combines them exactly as
// evaluateScore() does: the per-net HPWL terms are re-summed in net order,
// so the ratio matches hpwlIncreaseRatio() to the bit; displacementStats()
// is cheap and already exact, so it is simply called; legality comes from
// an audit of the changed cells (cellsLegal) — or from the ECO driver's own
// audit when that covered them — falling back to the full checkLegality()
// whenever the audit finds anything.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/score.hpp"

namespace mclg {

class ScoreTerms {
 public:
  /// Evaluate every term from scratch: O(cells + nets). `state` and
  /// `segments` must outlive this object; fixed cells, nets, rails and IO
  /// pins must not change while it lives.
  ScoreTerms(const PlacementState& state, const SegmentMap& segments);

  /// Re-derive the terms of `cells` after their placement, GP target or
  /// type changed, or after they were added; ids at or beyond the design's
  /// cell count are cells that were dropped. O(Δ): the cells' pin counters,
  /// the rows they left or entered, and their nets.
  void refresh(const std::vector<CellId>& cells);

  /// The score of the current placement, equal field by field to
  /// evaluateScore(design, segments). Legality comes from checkLegality(),
  /// or with `changed` from an audit of those cells that falls back to
  /// checkLegality() when it finds anything. The audit is skipped when
  /// `audited` — ascending cells a caller just found legal in this very
  /// placement (EcoStats::auditedLegal) — covers `changed`, which one
  /// merge of the two lists checks. \pre refresh() has seen every change;
  /// with `changed` (ascending when `audited` is given), the placement was
  /// legal before those cells changed.
  ScoreBreakdown evaluate(const std::vector<CellId>* changed = nullptr,
                          std::span<const CellId> audited = {}) const;

  /// Nets referencing cell c, ascending (empty for cells added after
  /// construction — no net references them).
  std::span<const NetId> netsOf(CellId c) const;

 private:
  struct Counted {
    std::int64_t y = 0;
    int h = 0;
    bool placed = false;
  };

  void count(CellId c, int sign);
  void markRows(std::int64_t y, int h);
  int rowEdgeViolations(std::int64_t y);

  const PlacementState* state_;
  const SegmentMap* segments_;
  int fixedCells_ = 0;
  // Per cell: the rows and pin counters it currently contributes.
  std::vector<Counted> counted_;
  std::vector<PinViolationReport> pins_;
  PinViolationReport pinTotal_;
  // Per row: fixed cells (x-sorted) and the edge-spacing violations counted
  // at that row (a pair counts at its lowest shared row).
  std::vector<std::vector<RowCellEntry>> fixedRows_;
  std::vector<int> edgeRow_;
  int edgeTotal_ = 0;
  // Per net: its hpwl() terms at GP and at the legal positions.
  std::vector<double> gpNet_, legalNet_;
  // Cell -> nets index (CSR over the cells present at construction).
  std::vector<std::size_t> netStart_;
  std::vector<NetId> netIds_;
  // refresh() scratch: dirty-row / dirty-net marks and lists.
  std::vector<char> rowMark_, netMark_;
  std::vector<std::int64_t> rows_;
  std::vector<NetId> nets_;
  std::vector<RowCellEntry> merged_;
};

}  // namespace mclg
