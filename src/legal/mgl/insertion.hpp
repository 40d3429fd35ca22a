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
// The evaluation estimates each row's chain on its own, so a candidate
// whose chains interact across rows can be infeasible. Every seed is
// therefore tested exactly, in O(h), against per-cell push-reach bounds:
// the furthest a left (right) push may drive a cell before its chain,
// followed through every row of every pushed cell, runs into a non-local
// cell or a segment boundary. The bounds are computed lazily, once per
// window, on the window's row snapshots, and give each seed the interval of
// x at which it can be committed. A seed whose interval misses its feasible
// x-interval is *doomed*: it can never commit, so its curves are built only
// if an ordering decision of the search needs its exact cost (see
// tryInsert). Only the candidate that passes is simulated push by push and
// applied, so a failed attempt costs no simulation and the placement never
// sees a partial commit.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "geometry/disp_curve.hpp"
#include "geometry/interval.hpp"
#include "geometry/rect.hpp"
#include "legal/refine/feasible_range.hpp"

namespace mclg {

struct SearchArena;

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
  /// Scratch for the searchers built with this config, not a tuning knob.
  /// nullptr: each searcher allocates its own, one slot per design cell. A
  /// caller that builds searchers per request (the serve session) passes
  /// one arena that lives as long as its design, so the searchers of a
  /// request do not each allocate and clear one. Searchers sharing an
  /// arena must run one tryInsert at a time.
  SearchArena* arena = nullptr;
};

class InsertionSearcher {
  friend struct SearchArena;

 public:
  InsertionSearcher(PlacementState& state, const SegmentMap& segments,
                    const InsertionConfig& config)
      : state_(state),
        segments_(segments),
        config_(config),
        arena_(config.arena) {}

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
  struct RowCtx;

  struct Candidate {
    std::int64_t x = 0;  // target left edge
    std::int64_t y = 0;  // target bottom row
    double cost = 0.0;
    std::int64_t seed = 0;  // partition seed (for the commit re-derivation)
    /// The x of the seed's feasible interval at which commit() succeeds
    /// (see reachInterval); empty for a doomed seed.
    std::int64_t reachLo = 0;
    std::int64_t reachHi = -1;

    /// True iff commit() succeeds at x: a commit fails exactly when a push
    /// hits a non-local cell or a slide-range bound, and both conditions
    /// are monotone in x.
    bool reachable() const { return reachLo <= x && x <= reachHi; }
  };

  /// A seed whose push-reach interval misses its feasible interval
  /// [lo, hi]. Until `exact`, cand.x and cand.cost are unknown and
  /// `lowerBound` stands for the cost; the seed's row contexts are kept in
  /// doomedCtx_ from `ctx` on, so that evaluateDoomed rebuilds exactly the
  /// curve sum evaluateRow would have built.
  struct DoomedSeed {
    Candidate cand;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    double lowerBound = 0.0;
    std::size_t ctx = 0;
    bool exact = false;
  };

  /// Evaluate all insertion points with bottom row y; append the
  /// candidates to candidateScratch_ and the doomed seeds to doomedScratch_.
  void evaluateRow(CellId c, const Rect& window, std::int64_t y);

  /// Evaluate the insertion point defined by `seed` on row span [y, y+h),
  /// whose row contexts are in rowCtxScratch_, and append it to
  /// candidateScratch_ or doomedScratch_. False if it is no candidate.
  bool evaluateSeed(CellId c, const Rect& window, std::int64_t y,
                    std::int64_t seed);

  /// Walk the chains of the insertion point whose per-row contexts are
  /// ctx[0, h) on row span [y, y+h): fill entryScratch_ and narrow [lo, hi]
  /// to the target x the chains leave room for. False if that is empty.
  bool walkChains(CellId c, const Rect& window, std::int64_t y,
                  const RowCtx* ctx, std::int64_t& lo,
                  std::int64_t& hi) const;

  /// The x in [lo, hi] at which the insertion point with contexts ctx can
  /// be committed, [reachLo, reachHi] (empty if reachLo > reachHi): the
  /// target at x requests a push of its immediate neighbour in each row of
  /// its span, and each request must stay within that neighbour's push
  /// reach (a non-local neighbour cannot move at all).
  void reachInterval(CellId c, const Rect& window, const RowCtx* ctx,
                     std::int64_t lo, std::int64_t hi, std::int64_t& reachLo,
                     std::int64_t& reachHi) const;

  /// Build the Fig. 4 curves of entryScratch_ and minimize them over
  /// [lo, hi], dodging vertical rails and pricing IO pins; fills out.x and
  /// out.cost. False if the rail dodge finds no clean site.
  bool minimizeCurves(CellId c, std::int64_t y, std::int64_t lo,
                      std::int64_t hi, Candidate& out) const;

  /// A lower bound on the cost minimizeCurves would find for entryScratch_
  /// on [lo, hi], less a margin that covers its floating-point rounding.
  double costLowerBound(CellId c, std::int64_t y, std::int64_t lo,
                        std::int64_t hi) const;

  /// True iff the vertical-rail dodge of minimizeCurves cannot fail for any
  /// optimum in [lo, hi]: every forbidden interval meeting [lo, hi] has a
  /// clean neighbour site inside it.
  bool railDodgeSafe(TypeId type, std::int64_t lo, std::int64_t hi) const;

  /// The first forbidden rail interval of `type` containing x, if any.
  const Interval* railAt(TypeId type, std::int64_t x) const;

  /// Compute the exact x and cost of doomed seed d.
  void evaluateDoomed(CellId c, const Rect& window, DoomedSeed& d);

  /// Seed the push work lists with the requests the target, placed at the
  /// reachable candidate cand, makes of its immediate neighbours in each
  /// row of its span; propagate them push by push, then shift the pushed
  /// cells and place c. A failing push is an assertion failure, not a
  /// rejection.
  void commit(CellId c, const Candidate& cand, const Rect& window);

  /// Push reach of local cell j in one direction: for a left push, the
  /// smallest left edge a request may demand of j (leftReach(j) =
  /// min(x_j, max(slide.lo, max over left neighbours n of leftReach(n) +
  /// w_n + spacing(n, j))), with leftReach = x for non-local cells); for a
  /// right push, the mirrored largest one. Filled into the window-epoch
  /// slots with an explicit stack, since chains in a full-core window can
  /// span thousands of cells.
  std::int64_t pushReach(CellId j, bool left, const Rect& window) const;

  bool isLocal(CellId c, const Rect& window) const;

  int edgeSpacing(int rightEdgeClass, int leftEdgeClass) const;
  int spacingBetween(CellId left, CellId right) const;

  // --- Epoch-tagged caches ------------------------------------------------
  //
  // One search window is fixed for the whole of a tryInsert call and the
  // placement does not mutate until the final commit, so everything derived
  // from (occupancy, window) can be computed once per (row, window) and
  // reused by every seed evaluation and every commit attempt. The window
  // epoch is bumped at the top of tryInsert; each seed evaluation and each
  // commit attempt draws a fresh step epoch. Stale slots are detected by
  // epoch mismatch, never cleared eagerly.

  /// Flattened occupancy of one row, restricted to the cells a chain walk
  /// can reach: everything with x in [window.xlo, window.xhi) plus at most
  /// one wall candidate on each side (cells outside the window are never
  /// local, so chains stop at the first one). The edge-spacing classes are
  /// copied in, so a chain walk reads only these arrays.
  struct RowSnap {
    std::uint64_t epoch = 0;
    std::int32_t winBegin = 0;  // index of first cell with x >= window.xlo
    std::vector<std::int64_t> x;       // left edges, ascending
    std::vector<double> center;        // x + width/2, ascending
    std::vector<CellId> cell;
    std::vector<std::int32_t> width;
    std::vector<std::int32_t> leftEdge;   // edge class of the left side
    std::vector<std::int32_t> rightEdge;  // edge class of the right side
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

  /// Where one row of the span stands in evaluateRow's ascending seed walk:
  /// the partition boundary and the number of segments starting at or left
  /// of the seed, both of which only move right as the seed does.
  struct RowCursor {
    const RowSnap* snap = nullptr;
    const std::vector<Segment>* segs = nullptr;
    std::int32_t boundary = 0;
    std::size_t segEnd = 0;
  };

  /// The (x, y) positions tryInsert has tried to commit in this window: an
  /// open-addressing hash set whose table is kept between windows and
  /// emptied through the list of slots in use, so an insert allocates
  /// nothing once the table has grown to the window's size.
  class SeenSet {
   public:
    void clear();
    /// True iff key was not in the set.
    bool insert(std::uint64_t key);

   private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    void grow();
    std::vector<std::uint64_t> slots_;  // size a power of two, or empty
    std::vector<std::uint32_t> used_;   // indexes of the filled slots
  };

  /// Progress of one push-reach threshold within the current window.
  enum class Reach : unsigned char { Unknown, Open, Known };

  /// Per-cell arena slot, indexed by CellId. `windowEpoch` tags the
  /// window-scoped fields: the Fig. 4 curve inputs, the push reach in both
  /// directions and the cell's snapshot positions.
  /// `stepEpoch` tags `step`, whose meaning depends on the phase: during
  /// seed evaluation it is the cell's index in the chain-entry list, during
  /// the commit the simulated new x. Both phases draw from one counter and
  /// never overlap within a window, so one tag serves both. The arena holds
  /// one slot per design cell, so the slot is kept at 72 bytes: the slide
  /// range is not cached (the push reach reads it once per cell and
  /// direction, the commit's assertions once per simulated push).
  struct CellSlot {
    std::uint64_t windowEpoch = 0;
    std::uint64_t stepEpoch = 0;
    double cur = 0.0;    // current x
    double gp = 0.0;     // objective anchor (gpX, or cur in MLL mode)
    double scale = 0.0;  // siteWidthFactor * metric weight
    std::int64_t step = 0;
    std::int64_t leftReach = 0;   // valid when leftState == Reach::Known
    std::int64_t rightReach = 0;  // valid when rightState == Reach::Known
    /// Local cells only: first of height() entries in spanIndex_, holding
    /// the cell's index in each row snapshot of its span; -1 until the
    /// first snapshot containing the cell is built.
    std::int32_t spanBase = -1;
    bool hasCurve = false;
    Reach leftState = Reach::Unknown;
    Reach rightState = Reach::Unknown;
  };

  /// Fetch the snapshot of row r for the current epoch, building it on
  /// first use.
  const RowSnap& rowSnap(std::int64_t r, const Rect& window) const;
  const RowSnap& buildRowSnap(std::int64_t r, const Rect& window) const;

  /// The arena slot of cell j, with its window-scoped fields reset when
  /// they belong to an earlier window.
  CellSlot& windowSlot(CellId j) const;

  /// Fetch the curve parameters of cell j, filling the slot on miss.
  const CellSlot& curveData(CellId j) const;

  /// SegmentMap::slideRange of cell j at its current position.
  Interval slideRange(CellId j) const;

  /// Index of local cell j in `snap`, the snapshot of row r of its span
  /// (recorded when the snapshot was built; no search).
  std::int32_t snapIndex(const RowSnap& snap, CellId j, std::int64_t r) const;

  /// Bump the epoch and lazily allocate and size the arena; called on
  /// tryInsert entry.
  void beginWindow();

  /// The arena's routability index (vertical-rail intervals per type and
  /// the IO-overlap table); built in beginWindow when routability is on.
  const ForbiddenXIndex& forbidden() const;

  PlacementState& state_;
  const SegmentMap& segments_;
  InsertionConfig config_;
  CommitInfo lastCommit_;

  SearchArena* arena_;                     // config_.arena or ownArena_
  std::unique_ptr<SearchArena> ownArena_;  // allocated on first use
  mutable std::vector<std::int32_t> spanIndex_;   // see CellSlot::spanBase
  mutable std::vector<RowCtx> rowCtxScratch_;      // current seed's contexts
  mutable std::vector<RowCtx> prevRowCtxScratch_;  // previous seed's contexts
  mutable std::vector<RowCursor> rowCursorScratch_;
  // Aggregated locally, flushed to the metrics registry once per window.
  mutable std::size_t dupSkipped_ = 0;
  mutable std::size_t curveHits_ = 0;
  mutable std::size_t curveMisses_ = 0;
  std::size_t commitPushes_ = 0;
  std::size_t doomedSeeds_ = 0;
  std::size_t doomedEvaluated_ = 0;

  // Reused scratch buffers — the search runs millions of evaluations and
  // commit attempts, and per-call container construction dominated the
  // profile. A searcher is therefore NOT thread-safe; use one per thread.
  struct ChainEntry {
    CellId cell = kInvalidCell;
    std::int64_t off = 0;
    bool left = false;
  };
  /// A push request of the commit simulation: `cell`'s left edge must end
  /// at or below `bound` (left queue) or at or above it (right queue).
  /// `local` is the cell's snapshot flag; a non-local cell cannot move.
  struct PushReq {
    CellId cell;
    bool local;
    std::int64_t bound;
  };
  mutable std::vector<ChainEntry> entryScratch_;
  mutable CurveSum sumScratch_;
  mutable std::vector<std::int64_t> seedScratch_;
  std::vector<Candidate> candidateScratch_;
  std::vector<DoomedSeed> doomedScratch_;
  std::vector<RowCtx> doomedCtx_;  // see DoomedSeed::ctx
  SeenSet seenScratch_;
  std::vector<CellId> movedScratch_;  // cells with a simulated new x
  std::vector<PushReq> queueScratch_;
  std::vector<PushReq> rightQueueScratch_;
  mutable std::vector<CellId> reachStack_;  // pushReach's work stack
  std::vector<std::pair<CellId, std::int64_t>> leftShiftScratch_;
  std::vector<std::pair<CellId, std::int64_t>> rightShiftScratch_;
};

/// An InsertionSearcher's row snapshots and cell slots with their epoch
/// counters (see InsertionConfig::arena). The epochs only grow, so
/// whatever an earlier searcher left in a slot is simply stale.
///
/// It also holds the design's routability index, which depends only on
/// the cell types, rails and IO pins, never on the placement: the searchers
/// that share an arena (a serve session's, across all its requests) share
/// one index and the IO-overlap rows it has filled. It is rebuilt only if
/// the arena is handed a searcher of another design.
struct SearchArena {
  std::uint64_t windowEpoch = 0;
  std::uint64_t stepEpoch = 0;
  std::vector<InsertionSearcher::RowSnap> rowSnaps;    // indexed by row
  std::vector<InsertionSearcher::CellSlot> cellSlots;  // indexed by cell
  std::optional<ForbiddenXIndex> forbidden;

  /// `design`'s routability index: built on first use and again only when
  /// the arena moves to another design. The ECO driver's stage-3 solves
  /// read the one the request's searchers built.
  const ForbiddenXIndex& forbiddenFor(const Design& design) {
    if (!forbidden || &forbidden->design() != &design) {
      forbidden.emplace(design);
    }
    return *forbidden;
  }
};

inline const InsertionSearcher::RowSnap& InsertionSearcher::rowSnap(
    std::int64_t r, const Rect& window) const {
  const RowSnap& snap = arena_->rowSnaps[static_cast<std::size_t>(r)];
  return snap.epoch == arena_->windowEpoch ? snap : buildRowSnap(r, window);
}

inline const ForbiddenXIndex& InsertionSearcher::forbidden() const {
  return *arena_->forbidden;
}

}  // namespace mclg
