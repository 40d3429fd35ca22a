// Insertion-point search and commit for one target cell in one window —
// the inner loop of MGL (paper §3.1, Algorithm 1) and, in current-location
// mode, of the MLL baseline [12].
//
// For every parity-legal, rail-clean bottom row of the window, candidate
// insertion points are seeded from the gap edges of the cells crossing the
// target's row span. Each insertion point fixes, per row, which cells stay
// left and which go right of the target; the cells that can move (the
// *local* cells, fully inside the window) contribute displacement curves
// (geometry/disp_curve.hpp) and the sum is minimized over the feasible
// x-interval. Routability (§3.4) enters as: horizontal-rail conflicts kill
// whole rows, vertical-rail conflicts shift the x optimum to the nearest
// clean site, IO-pin overlaps add a cost penalty.
//
// Committing re-simulates the pushes exactly (with full multi-row chain
// propagation) before mutating the placement, so a candidate whose
// estimated chains interact across rows is safely discarded instead of
// producing an illegal placement.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "geometry/disp_curve.hpp"
#include "geometry/rect.hpp"

namespace mclg {

struct InsertionConfig {
  /// true: displacement measured from GP positions (MGL); false: from the
  /// cells' current positions (the MLL baseline's objective).
  bool gpObjective = true;
  /// true: weight each cell by Eq. 2 (contest metric); false: unit weights
  /// (total-displacement objective, Table 2 mode).
  bool contestWeights = true;
  /// Enable §3.4 routability handling (rails, IO pins).
  bool routability = true;
  /// Honor the edge-spacing table between abutting cells. The champion
  /// proxy baseline disables this (and pays the Table 1 violations).
  bool respectEdgeSpacing = true;
  /// Cost penalty per IO-pin violation at the chosen position (row heights).
  double ioPenalty = 2.0;
  /// Cap on candidate seeds per row span (nearest to the GP x are kept).
  int maxSeedsPerRow = 32;
  /// How many best-cost insertion points to attempt committing before
  /// giving up on the window. Commits are much cheaper than evaluations, so
  /// a high cap pays for itself: chains that interact across rows make
  /// individual commits fail, and falling through to window expansion is
  /// far more expensive than trying the next candidate.
  int maxCommitAttempts = 256;
  /// Only commit candidates with estimated cost strictly below this bound
  /// (weighted regional displacement delta). The rip-up refinement uses it
  /// to re-insert a cell only where it is a net win.
  double costCeiling = std::numeric_limits<double>::infinity();
};

class InsertionSearcher {
 public:
  InsertionSearcher(PlacementState& state, const SegmentMap& segments,
                    const InsertionConfig& config)
      : state_(state), segments_(segments), config_(config) {}

  /// Search the window for the cheapest legal insertion of cell c and commit
  /// it (placing c and shifting local cells). Returns false if no candidate
  /// in this window could be committed.
  bool tryInsert(CellId c, const Rect& window);

  /// Adjust the commit gate between searches; lets callers that vary the
  /// ceiling per cell (rip-up refinement) reuse one searcher and its caches.
  void setCostCeiling(double ceiling) { config_.costCeiling = ceiling; }

  /// Diagnostics of the last successful commit: position, the curve
  /// model's estimated cost, the exactly measured cost (both are weighted
  /// regional displacement deltas; they agree unless multi-row chains
  /// interacted), and the applied shifts (enough to undo the commit).
  struct CommitInfo {
    std::int64_t x = 0;
    std::int64_t y = 0;
    double estimatedCost = 0.0;
    double measuredCost = 0.0;
    std::vector<std::pair<CellId, std::int64_t>> shifts;  // (cell, oldX)
  };
  const CommitInfo& lastCommit() const { return lastCommit_; }

  /// Revert the last successful commit (remove the target, restore every
  /// shifted cell). Must be called before any further mutation.
  void undoLastCommit(CellId c);

 private:
  struct Candidate {
    std::int64_t x = 0;  // target left edge
    std::int64_t y = 0;  // target bottom row
    double cost = 0.0;
    std::int64_t seed = 0;  // partition seed (for the commit re-derivation)
  };

  /// Evaluate all insertion points with bottom row y; append candidates.
  void evaluateRow(CellId c, const Rect& window, std::int64_t y,
                   std::vector<Candidate>& out) const;

  /// Evaluate the single insertion point defined by `seed` on row span
  /// [y, y+h). Returns false if infeasible.
  bool evaluateSeed(CellId c, const Rect& window, std::int64_t y,
                    std::int64_t seed, Candidate& out) const;

  /// Exact push simulation + mutation. Returns false (placement untouched)
  /// if some required push hits a non-local cell or a segment boundary.
  bool commit(CellId c, const Candidate& cand, const Rect& window);

  bool isLocal(CellId c, const Rect& window) const;

  int edgeSpacing(int rightEdgeClass, int leftEdgeClass) const;
  int spacingBetween(CellId left, CellId right) const;

  // --- Window-epoch caches -------------------------------------------------
  //
  // One search window is fixed for the whole of a tryInsert call and the
  // placement does not mutate until the final commit, so everything derived
  // from (occupancy, window) can be computed once per (row, window) and
  // reused by every seed evaluation. The epoch counter is bumped at the top
  // of tryInsert; stale cache slots are detected by epoch mismatch, never
  // cleared eagerly.

  /// Flattened occupancy of one row, restricted to the cells a chain walk
  /// can reach: everything with x in [window.xlo, window.xhi) plus at most
  /// one wall candidate on each side (cells outside the window are never
  /// local, so chains stop at the first one).
  struct RowSnap {
    std::uint64_t epoch = 0;
    std::int32_t winBegin = 0;  // index of first cell with x >= window.xlo
    std::vector<std::int64_t> x;       // left edges, ascending
    std::vector<double> center;        // x + width/2, ascending
    std::vector<CellId> cell;
    std::vector<std::int32_t> width;
    std::vector<unsigned char> local;  // isLocal(cell, window)
  };

  /// Per-(row, seed) context: the segment under the seed and the partition
  /// boundary (first snapshot index whose center exceeds the seed center).
  /// Two seeds with identical contexts on every row of the span produce
  /// bit-identical candidates, so evaluateRow skips the duplicates.
  struct RowCtx {
    const RowSnap* snap = nullptr;
    const Segment* seg = nullptr;
    std::int32_t boundary = 0;
  };

  /// Cached displacement-curve parameters of one local cell (Fig. 4 inputs);
  /// valid for one window epoch.
  struct CellCurveData {
    std::uint64_t epoch = 0;
    double cur = 0.0;    // current x
    double gp = 0.0;     // objective anchor (gpX, or cur in MLL mode)
    double scale = 0.0;  // siteWidthFactor * metric weight
  };

  /// Build (or fetch) the snapshot of row r for the current epoch.
  const RowSnap& rowSnap(std::int64_t r, const Rect& window) const;

  /// Fetch the curve parameters of cell j, filling the arena slot on miss.
  const CellCurveData& curveData(CellId j) const;

  /// Bump the epoch and lazily size the arenas; called on tryInsert entry.
  void beginWindow();

  PlacementState& state_;
  const SegmentMap& segments_;
  InsertionConfig config_;
  CommitInfo lastCommit_;

  mutable std::uint64_t windowEpoch_ = 0;
  mutable std::vector<RowSnap> rowSnaps_;        // indexed by row
  mutable std::vector<CellCurveData> cellCurve_;  // indexed by cell
  mutable std::vector<RowCtx> rowCtxScratch_;     // current seed's contexts
  mutable std::vector<RowCtx> prevRowCtxScratch_;  // previous seed's contexts
  // verticalRailForbiddenX cache, keyed by (epoch, row).
  mutable std::vector<Interval> forbiddenScratch_;
  mutable std::uint64_t forbiddenEpoch_ = 0;
  mutable std::int64_t forbiddenY_ = 0;
  // Aggregated locally, flushed to the metrics registry once per window.
  mutable std::size_t dupSkipped_ = 0;
  mutable std::size_t curveHits_ = 0;
  mutable std::size_t curveMisses_ = 0;

  // Reused scratch buffers — the search runs millions of evaluations and
  // commit attempts, and per-call container construction dominated the
  // profile. A searcher is therefore NOT thread-safe; use one per thread.
  struct ChainEntry {
    CellId cell = kInvalidCell;
    std::int64_t off = 0;
    bool left = false;
  };
  struct PushReq {
    CellId cell;
    std::int64_t bound;
  };
  mutable std::vector<ChainEntry> entryScratch_;
  mutable std::unordered_map<CellId, std::size_t> entryIndexScratch_;
  mutable CurveSum sumScratch_;
  mutable std::vector<std::int64_t> seedScratch_;
  std::vector<Candidate> candidateScratch_;
  std::unordered_set<std::uint64_t> seenScratch_;
  std::unordered_map<CellId, std::int64_t> newXScratch_;
  std::vector<PushReq> queueScratch_;
  std::vector<PushReq> rightQueueScratch_;
  std::vector<std::pair<CellId, std::int64_t>> leftShiftScratch_;
  std::vector<std::pair<CellId, std::int64_t>> rightShiftScratch_;
};

}  // namespace mclg
