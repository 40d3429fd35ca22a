// The full legalization flow of the paper (Fig. 2):
//
//   GP solution -> MGL (§3.1) -> max-displacement matching (§3.2)
//               -> fixed-row-&-order MCF (§3.3) -> legal placement
//
// with routability handled inside MGL and via feasible ranges (§3.4).
// This is the library's primary entry point.
#pragma once

#include <optional>
#include <string>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "legal/guard/guard.hpp"
#include "legal/maxdisp/matching_opt.hpp"
#include "legal/mcfopt/fixed_row_order.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "legal/refine/ripup_refine.hpp"
#include "legal/refine/wirelength_recovery.hpp"
#include "util/timer.hpp"

namespace mclg {

struct PipelineConfig {
  MglConfig mgl;
  MaxDispConfig maxDisp;
  FixedRowOrderConfig fixedRowOrder;
  RipupConfig ripup;
  WirelengthRecoveryConfig recovery;
  bool runMaxDisp = true;        // stage 2 toggle (Table 3 ablation)
  bool runFixedRowOrder = true;  // stage 3 toggle (Table 3 ablation)
  // Extension stages beyond the paper's flow, off by default.
  bool runRipup = false;             // rip-up & re-insert (stage 4)
  bool runWirelengthRecovery = false;  // budgeted HPWL recovery (stage 5)
  /// Transactional stage guard (legal/guard/): snapshot / validate /
  /// rollback / degrade. Off by default in the library; the CLI enables it.
  GuardConfig guard;
  /// Executor all stage parallelism borrows lanes from. Authoritative for
  /// the whole flow: legalize() (and ecoRelegalize) copy it into every
  /// stage config at entry, so mclg_serve and tests redirect a run to
  /// a private executor by setting just this field. Defaults to the
  /// process-wide executor (util/executor/executor.hpp).
  ExecutorRef executor{};

  /// Set the thread budget the way the CLI's --threads does. Only the
  /// §3.2 matching runs on lanes: MGL is serial and the §3.3 MCF is one
  /// solve.
  void setThreads(int numThreads);

  /// Copy `executor` into the per-stage configs (maxDisp).
  /// legalize() does this on its local copy; only callers invoking stages
  /// directly from a PipelineConfig need to call it themselves.
  void propagateExecutor();

  /// Contest setup (Table 1): Eq. 2 weights, routability on.
  static PipelineConfig contest();
  /// Total-displacement setup (Table 2): unit weights, fences present but
  /// routability constraints ignored, no max-displacement weighting.
  static PipelineConfig totalDisplacement();
  /// The preset named `name` ("contest" or "totaldisp"); nothing for any
  /// other name. Every front end resolves --preset / `preset =` here.
  static std::optional<PipelineConfig> preset(const std::string& name);
};

struct PipelineStats {
  MglStats mgl;
  MaxDispStats maxDisp;
  FixedRowOrderStats fixedRowOrder;
  RipupStats ripup;
  WirelengthRecoveryStats recovery;
  double secondsMgl = 0.0;
  double secondsMaxDisp = 0.0;
  double secondsFixedRowOrder = 0.0;
  double secondsRipup = 0.0;
  double secondsRecovery = 0.0;
  /// Per-stage transaction records. Populated on every run — including
  /// unguarded ones, where each executed stage shows one Ok attempt — so a
  /// report always distinguishes "ran" from "disabled" / "never reached".
  GuardReport guard;

  double secondsTotal() const {
    return secondsMgl + secondsMaxDisp + secondsFixedRowOrder + secondsRipup +
           secondsRecovery;
  }
};

/// Wall and CPU stopwatch of one pipeline stage, running from
/// construction. CPU is the process's getrusage delta, so the worker lanes
/// of a parallel stage count, not only the thread that reads the clock.
class StageClock {
 public:
  StageClock();
  double seconds() const { return wall_.seconds(); }
  double cpuSeconds() const;
  /// Publish stage.<name>.wall_seconds and .cpu_seconds for the run
  /// report; a no-op while metrics are off.
  void record(PipelineStage stage) const;

 private:
  Timer wall_;
  double cpuStart_;
};

/// Legalize all unplaced movable cells of the design behind `state` by
/// running the enabled stages in order: each once when config.guard is off
/// (a stage exception propagates), each as a guarded transaction when it
/// is on (legal/guard/guard.hpp).
/// \pre  every placed cell (fixed or previously legalized) is overlap-free;
///       unplaced movable cells carry their GP targets in gpX/gpY.
/// \post all movable cells are placed and legal unless the design is
///       infeasible (stats.mgl.failed > 0, or guard degradation when
///       config.guard.enabled). Deterministic for a fixed config and
///       invariant under every stage's thread count.
PipelineStats legalize(PlacementState& state, const SegmentMap& segments,
                       const PipelineConfig& config);

}  // namespace mclg
