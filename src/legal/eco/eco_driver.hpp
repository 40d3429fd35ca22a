// Incremental ECO re-legalization driver.
//
// ECO loops (timing fixes, gate sizing, buffer insertion) re-run
// legalization after editing a small fraction of the cells of an already
// legal placement. Instead of re-legalizing the whole design, the driver
//
//  1. starts from a *seed* (EcoSeed): the moved / resized / added cells —
//     the *dirty* set — classified, and the placement seeded so that clean
//     cells keep their last legal positions and dirty cells start unplaced.
//     Two builders make a seed and callers differ only in which one they
//     use: seedFromSnapshot() diffs the design against a legal snapshot
//     (DeltaTracker::diff; the CLI's --eco-from, bench_eco, tests), and
//     seedFromLog() reads a resident design's undo log (EditLog; the serve
//     session, O(Δ)). When the dirty cells' halo-widened level-0 windows
//     cover at least 90% of the core's level-0 window tiles, it runs the
//     full pipeline instead (the covers-core bailout);
//  2. re-runs Stage 1 (MGL window insertion, §3.1) — which only inserts
//     unplaced cells, i.e. exactly the dirty set, but searches whole MGL
//     windows and may push clean cells anywhere they reach — with a
//     DeltaTracker listener recording that displacement spill, then a
//     rip-up & re-insert pass over the worst-displaced touched cells, so a
//     far-flung insertion can re-run its window search against the freed
//     displacement, then Stage 2 (§3.2 matching) focused on the touched
//     cells still stranded, which can swap with a same-type neighbor. Its
//     chunks are picked by rank (focusedMatchingChunks): the full pass's
//     row-major chunks holding a stranded cell, trimmed to `kEcoChainHalo`
//     row-major neighbours, found without sorting the whole group;
//  3. re-runs Stage 3 (fixed-row/fixed-order MCF, §3.3) only on the
//     constraint-graph components containing dirty or spilled cells — each
//     trimmed to the `kEcoChainHalo` chain neighborhood of those cells,
//     with everything beyond the trim acting as a fixed wall, so the solve
//     is delta-sized even when the component spans the netlist — with one
//     cold solve per trimmed component. A second solve on the moved cells
//     could not do better: only a pair's separation clamped to its current
//     distance (sep = min(rule, x - prevX), where a soft spacing rule is
//     already violated) depends on the subset cells' x — ranges come from
//     the segment and the rail-clean stretch around x, which a cell moved
//     within its range keeps; GP costs and the row order are fixed; walls
//     do not move. Without a clamp it would rebuild the same network; with
//     one, its separations are at least the first's and hold at the first
//     solution, which stays optimal;
//  4. audits the result (legality + placed-count) — only the cells the run
//     placed or moved when the seed vouches for its clean cells, the whole
//     design otherwise; any violation — or a structural diff the delta
//     model cannot express — degrades to a full pipeline run, never to a
//     worse-than-full result.
//
// Bookkeeping is delta-sized: every cell set of a run (the dirty cells,
// the tracker's touched cells, the recovery passes' focus, stage 3's rows
// and kept cells, the audit) is a sorted list of cell ids, and MGL takes
// the cells it places from the state's unplaced list
// (PlacementState::unplacedCells), so no per-request step allocates or
// scans a per-cell array of the design.
//
// Exactness knobs: `validate` additionally runs the full pipeline on a
// scratch copy and checks the EcoEquivalence invariant (legal + score
// within `scoreTolerance`); `exact` does the same and then *adopts* the
// full run's placement, making the output byte-identical to a full re-run
// at the same configuration (at the price of the full run's cost — useful
// for signoff, not speed). Approximations vs. the full pipeline, covered
// by the tolerance: Stage 2 runs only on the touched groups, and the
// per-component Stage 3 forces maxDispWeight = 0 (the §3.3.1 term couples
// all cells globally, so it cannot be decomposed).
//
// Determinism: the result is reproducible and does not depend on the
// thread count (serial MGL; components solved serially in a fixed order).
// With `exact` it is additionally byte-identical to what a from-scratch
// legalize() under the same PipelineConfig produces, which is itself
// thread-count invariant.
#pragma once

#include <string>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "legal/eco/delta_tracker.hpp"
#include "legal/eco/edit_log.hpp"
#include "legal/pipeline.hpp"
#include "util/deadline.hpp"

namespace mclg {

/// Stage-3 locality: before solving a dirty component, trim it to the
/// cells within this many chain positions (per row, in row order) of a
/// dirty or touched cell. Cells outside the trimmed subset become fixed
/// walls — their separation clamps the boundary cells' feasible ranges
/// (optimizeFixedRowOrderSubset) — so the solve cost is proportional to
/// the delta rather than to the enclosing component, which on a dense
/// design is most of the netlist. The wall approximation is covered by the
/// same score tolerance as the other incremental shortcuts. The focused
/// §3.2 matching trims its chunks to the same halo.
inline constexpr int kEcoChainHalo = 24;
/// The covers-core test's halo: each dirty cell's level-0 window is
/// widened by this many sites and rows before its tiles are marked dirty.
/// It only widens that test; nothing confines the incremental stages to
/// the marked tiles, and clean cells outside them can move too (the
/// report's `eco.spilled_cells`).
inline constexpr int kEcoCoverHaloSites = 48;
inline constexpr int kEcoCoverHaloRows = 12;

struct EcoConfig {
  /// Stage configs for the incremental stages and for any full-pipeline
  /// fallback / shadow run. guard.enabled additionally wraps the fallback
  /// full run in the stage transactions.
  PipelineConfig pipeline;
  /// Rip-up threshold (row heights) for the post-insertion recovery pass —
  /// lower than the standalone refiner's default because the incremental
  /// insertion is exactly what strands cells.
  double ripupThreshold = 3.0;
  /// Allowed relative Eq. 10 regression vs. a full re-run (validate mode).
  double scoreTolerance = 0.02;
  /// Run the full pipeline on a scratch copy and audit EcoEquivalence.
  bool validate = false;
  /// validate + adopt the full run's placement: byte-identical output.
  bool exact = false;
  /// Request-scoped wall-clock budget (serving, flow/serve/): checked at
  /// every phase boundary of the incremental path and folded into the
  /// guard's per-stage deadline for any full-run fallback. Expiry throws
  /// MclgError(Timeout) out of ecoRelegalize — callers that set a limited
  /// deadline must treat the state as dirty and roll back (the serve
  /// session undoes the request through its EditLog for exactly this
  /// reason).
  /// Unlimited by default, so CLI/batch ECO runs are unaffected.
  Deadline requestDeadline;
};

struct EcoStats {
  // Delta classification.
  int movedCells = 0;
  int resizedCells = 0;
  int addedCells = 0;
  int dirtyCells = 0;    ///< union of the above
  int spilledCells = 0;  ///< clean cells the incremental stages touched
  /// Level-0 window tiles the covers-core test left clean.
  long long reusedWindows = 0;
  // Stage-2/3 and refinement activity.
  int matchedCellsMoved = 0;  ///< cells relocated by the focused matching
  int ripupImproved = 0;      ///< stranded cells the rip-up pass recovered
  int dirtySegments = 0;  ///< dirty constraint components re-optimized
  int mcfCellsMoved = 0;
  // Outcome.
  bool usedFullRun = false;  ///< structural diff or failed audit: fell back
  std::string fallbackReason;
  bool exactVerified = false;  ///< exact/validate: hashes matched
  /// The cells the incremental audit checked and found legal, ascending:
  /// every cell the run placed or moved. Empty unless that audit decided
  /// (a seed vouching for its clean cells, no full run, no exact adoption).
  /// A caller that audits the same placement again may skip the cells
  /// listed here.
  std::vector<CellId> auditedLegal;
  double scoreIncremental = -1.0;
  double scoreFull = -1.0;  ///< only measured in validate/exact mode
  MglStats mgl;
  // Timings. secondsIncremental is the cost of the incremental path alone
  // (what the speedup benchmark measures); secondsShadow is the optional
  // full shadow run of validate/exact mode.
  double secondsIncremental = 0.0;
  double secondsShadow = 0.0;
};

/// ecoRelegalize's precondition: the classified delta, with the state seeded
/// — every clean cell at its last legal position, every dirty cell
/// unplaced. Both builders below produce the same seed (and so the same
/// ECO result) for the same edit.
struct EcoSeed {
  /// The classified edit. When `structural`, the state is left unseeded and
  /// ecoRelegalize runs the full pipeline.
  DeltaSet delta;
  /// Last legal placement of each delta.dirtyCells() entry, in that order
  /// (not placed for an added cell): the covers-core test's vacated-spot
  /// windows.
  std::vector<PlacementSnapshot::CellPos> previous;
  /// Clean cells whose last legal position is not replayable (a corrupt
  /// snapshot): left unplaced and re-placed like dirty cells.
  std::vector<CellId> unreplayable;
  /// Every clean cell is known to be placed legally (an in-memory placement
  /// that passed checkLegality), so the audit re-checks only the cells the
  /// run placed or moved. False — a snapshot read from a file — audits the
  /// whole design.
  bool cleanCellsLegal = false;
  /// Seconds the builder took (part of EcoStats::secondsIncremental).
  double seconds = 0.0;
};

/// Seed `state` (whose design carries the ECO edits) from the last legal
/// `snapshot` of the same design: DeltaTracker::diff, then every movable
/// cell unplaced and the clean ones re-placed at their snapshot positions.
/// O(design). A structural diff leaves the state as it is.
EcoSeed seedFromSnapshot(PlacementState& state, const Design& snapshot);

/// Seed a resident design from its undo log, in O(cells logged since the
/// last commit): the same classification DeltaTracker::diff would make
/// against the committed placement, the same occupancy the snapshot
/// seeding would leave. \pre `log` is the state's listener and has logged
/// the current request's edits (ops applied; a resized cell was removed
/// from the occupancy index before its type changed); the placement was
/// legal when the request began.
EcoSeed seedFromLog(PlacementState& state, const EditLog& log);

/// Incrementally re-legalize a seeded `state` (see EcoSeed).
/// \pre  `seed` was built on `state` by one of the builders above, and the
///       last legal placement it seeded from is structurally compatible
///       (same core, types, fences, rails, fixed cells; see
///       DeltaTracker::diff) — structural mismatch degrades to a full run.
/// \post The design behind `state` is legal (or, on an infeasible design,
///       as placed as a full run would leave it); stats.usedFullRun tells
///       which path produced it. Never aborts on a bad snapshot. Every
///       placement change reaches the listener registered on `state`.
EcoStats ecoRelegalize(PlacementState& state, const SegmentMap& segments,
                       const EcoSeed& seed, const EcoConfig& config);

/// seedFromSnapshot + ecoRelegalize: the CLI's --eco-from path.
EcoStats ecoRelegalize(PlacementState& state, const SegmentMap& segments,
                       const Design& snapshot, const EcoConfig& config);

/// The run report's `pipeline` block for an ECO run: the incremental
/// path's MGL stats, with secondsIncremental as the MGL (and so the total)
/// wall clock.
PipelineStats ecoPipelineStats(const EcoStats& eco);

}  // namespace mclg
