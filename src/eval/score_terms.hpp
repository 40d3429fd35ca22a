// Resident, incrementally maintained terms of the Eq. 10 score (score.hpp)
// and of placementHash() for a placement that changes a few cells at a
// time — the serve session's per-request score and hash.
//
// evaluateScore() walks the whole design: pin violations per cell, edge
// spacing per row, HPWL per net, displacement per cell, legality per cell
// and row. ScoreTerms keeps each of those as integer counters (pin
// shorts/access per cell, edge-spacing violations per row), per-net doubles
// (HPWL at the legal and at the GP position) and per-cell displacements,
// and refresh() re-derives only what a set of changed cells can affect.
// The displacement and HPWL sums are kept in the block order of
// eval/block_sum.hpp, which displacementStats() and hpwl() use too, so
// evaluate() equals evaluateScore() field by field, bit for bit, without a
// pass over the design; the maximum displacement is kept in a max tree.
// The placement hash is kept the same way: a sum of per-cell terms.
// Legality comes from an audit of the changed cells (cellsLegal) — or from
// the ECO driver's own audit when that covered them — falling back to the
// full checkLegality() whenever the audit finds anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/block_sum.hpp"
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
  /// hash terms and displacement blocks, the rows they left or entered, and
  /// their nets' blocks.
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

  /// placementHash() of the current placement, kept: no pass over the
  /// design. \pre refresh() has seen every change.
  std::uint64_t hash() const { return hash_; }

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
  void markBlock(CellId c);
  int rowEdgeViolations(std::int64_t y);
  /// Re-add the displacement sums and maximum of one block of cells.
  void sumBlock(std::size_t block);

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
  // Per cell: its placementHash() term; their sum.
  std::vector<std::uint64_t> cellHash_;
  std::uint64_t hash_ = 0;
  // Per cell: its displacement (0 unless counted). Per block of cells: the
  // displacement sums by height and in sites, and the maximum.
  std::vector<double> disp_;
  std::vector<SumTree> dispByHeight_;
  SumTree dispSites_;
  MaxTree dispMax_;
  // Per net: its hpwl() terms at GP and at the legal positions (zero for a
  // net with fewer than two pins), with their sums.
  KeptSum gpNet_, legalNet_;
  // Cell -> nets index (CSR over the cells present at construction).
  std::vector<std::size_t> netStart_;
  std::vector<NetId> netIds_;
  // refresh() scratch: dirty-row / dirty-net / dirty-block marks and lists.
  std::vector<char> rowMark_, netMark_, blockMark_;
  std::vector<std::int64_t> rows_;
  std::vector<NetId> nets_;
  std::vector<std::size_t> blocks_;
  std::vector<double> heightSums_;
  std::vector<RowCellEntry> merged_;
};

}  // namespace mclg
