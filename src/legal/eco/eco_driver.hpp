// Incremental ECO re-legalization driver.
//
// ECO loops (timing fixes, gate sizing, buffer insertion) re-run
// legalization after editing a small fraction of the cells of an already
// legal placement. Instead of re-legalizing the whole design, the driver
//
//  1. diffs the current design against the last legal snapshot
//     (DeltaTracker::diff) — moved / resized / added cells are *dirty*;
//  2. seeds the placement: clean cells keep their snapshot positions, dirty
//     cells start unplaced (EcoPlanner bounds the affected window set and
//     feeds the eco.* report fields);
//  3. re-runs Stage 1 (MGL window insertion, §3.1) — which only processes
//     unplaced cells, i.e. exactly the dirty set — with a DeltaTracker
//     listener recording the displacement spill onto clean neighbors, then
//     Stage 2 (§3.2 matching) focused on the touched (type × fence)
//     groups, then a rip-up & re-insert pass over the worst-displaced
//     cells, so a far-flung insertion can swap with a same-type neighbor
//     or re-run its window search against the freed displacement;
//  4. re-runs Stage 3 (fixed-row/fixed-order MCF, §3.3) only on the
//     constraint-graph components containing dirty or spilled cells — each
//     trimmed to the `froChainHalo` chain neighborhood of those cells,
//     with everything beyond the trim acting as a fixed wall, so the solve
//     is delta-sized even when the component spans the netlist — in
//     `mcfPasses` passes through one persistent NetworkSimplexSolver per
//     component: pass 1 solves cold and retains the basis, later passes
//     warm-restart on the same topology with drifted costs (cold fallback
//     on validation failure is automatic and counted);
//  5. audits the result (legality + placed-count); any violation — or a
//     structural diff the delta model cannot express — degrades to a full
//     pipeline run, never to a worse-than-full result.
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

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "legal/pipeline.hpp"
#include "util/deadline.hpp"

namespace mclg {

struct EcoConfig {
  /// Stage configs for the incremental stages and for any full-pipeline
  /// fallback / shadow run. guard.enabled additionally wraps the fallback
  /// full run in the stage transactions.
  PipelineConfig pipeline;
  /// Halo (sites x rows) added around each dirty cell's windows to bound
  /// the displacement spill region (eco_planner.hpp).
  int haloSites = 48;
  int haloRows = 12;
  /// Stage-3 passes per dirty component. Pass 1 is cold; passes >= 2
  /// warm-restart (and are skipped once a pass moves nothing).
  int mcfPasses = 2;
  /// Stage-3 locality: before solving a dirty component, trim it to the
  /// cells within this many chain positions (per row, in row order) of a
  /// dirty or touched cell. Cells outside the trimmed subset become fixed
  /// walls — their separation clamps the boundary cells' feasible ranges
  /// (optimizeFixedRowOrderSubset) — so the solve cost is proportional to
  /// the delta rather than to the enclosing component, which on a dense
  /// design is most of the netlist. The wall approximation is covered by
  /// the same score tolerance as the other incremental shortcuts. 0 solves
  /// whole components.
  int froChainHalo = 24;
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
  /// session runs each request on a scratch copy for exactly this reason).
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
  // Planner accounting (run-report `eco.*`).
  int dirtyWindows = 0;
  long long reusedWindows = 0;
  // Stage-2/3 and refinement activity.
  int matchedCellsMoved = 0;  ///< cells relocated by the focused matching
  int ripupImproved = 0;      ///< stranded cells the rip-up pass recovered
  int dirtySegments = 0;  ///< dirty constraint components re-optimized
  long long warmRestarts = 0;   ///< MCF re-solves that reused a basis
  long long coldFallbacks = 0;  ///< warm attempts rejected, re-solved cold
  int mcfCellsMoved = 0;
  // Outcome.
  bool usedFullRun = false;  ///< structural diff or failed audit: fell back
  std::string fallbackReason;
  bool exactVerified = false;  ///< exact/validate: hashes matched
  double scoreIncremental = -1.0;
  double scoreFull = -1.0;  ///< only measured in validate/exact mode
  MglStats mgl;
  // Timings. secondsIncremental is the cost of the incremental path alone
  // (what the speedup benchmark measures); secondsShadow is the optional
  // full shadow run of validate/exact mode.
  double secondsIncremental = 0.0;
  double secondsShadow = 0.0;
};

/// Incrementally re-legalize `state` (whose design carries the ECO edits)
/// against the last legal `snapshot` of the same design.
/// \pre  `snapshot` is a legal placement of a structurally compatible
///       design (same core, types, fences, rails, fixed cells; see
///       DeltaTracker::diff) — structural mismatch degrades to a full run.
/// \post The design behind `state` is legal (or, on an infeasible design,
///       as placed as a full run would leave it); stats.usedFullRun tells
///       which path produced it. Never aborts on a bad snapshot.
EcoStats ecoRelegalize(PlacementState& state, const SegmentMap& segments,
                       const Design& snapshot, const EcoConfig& config);

}  // namespace mclg
