// Pipeline guard (robustness subsystem): stage transactions, invariant
// validation, deterministic fault injection, and graceful degradation.
//
// Every stage of legalize() can run as a transaction: the guard snapshots
// the PlacementState, runs the stage, audits the result (overlap / core /
// parity / fence legality, placed-count monotonicity, Eq. 10 score
// non-regression), and on any violation — thrown MclgError, exhausted
// wall-clock budget, or failed audit — rolls back to the snapshot and
// applies a degradation policy: retry with a relaxed configuration, skip an
// optional stage, or fall back to the Tetris baseline for the mandatory MGL
// stage. Every decision is recorded in a GuardReport.
//
// FaultPlan is the test harness for all of this: it deterministically arms
// synthetic faults (stage exceptions, artificial invariant breaks, budget
// exhaustion, worker-task throws) at chosen (stage, attempt) points so the
// rollback and degradation paths are exercised without relying on real
// failures.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eval/score.hpp"
#include "util/deadline.hpp"

namespace mclg {

/// The process exit-code contract shared by mclg_cli, mclg_batch workers,
/// and the batch supervisor's exit-code -> WorkerStatus mapping
/// (flow/worker_protocol.hpp). Documented in `mclg_cli --help` and
/// docs/ROBUSTNESS.md; the values are load-bearing wire format — never
/// renumber.
enum class GuardExitCode : int {
  Legal = 0,       ///< success; placement fully legal
  Usage = 1,       ///< usage / IO error (bad flags, unreadable files)
  Degraded = 2,    ///< legalized only after guard degradation
  Infeasible = 3,  ///< infeasible cells remain or placement not legal
  ParseError = 4,  ///< structured parse error in an input file
  Internal = 5,    ///< unrecoverable stage failure / unexpected exception
};

struct GuardReport;

/// The one run-outcome rule of every front end (mclg_cli's exit code, the
/// batch worker's WorkerStatus, the serve session's ServeStatus): Internal
/// when the guard failed, Infeasible when cells are infeasible or the
/// placement is not legal, Degraded when the guard degraded or an ECO run
/// fell back to a full run, Legal otherwise.
GuardExitCode runOutcome(const GuardReport& guard, bool placementLegal,
                         bool ecoFellBack = false);

/// Why a run ended Internal or Infeasible (`unplacedCells` from the
/// legality check), for error fields and messages; "" for any other code.
std::string runOutcomeError(GuardExitCode outcome, int unplacedCells);

/// The five stages of legalize(), in execution order.
enum class PipelineStage { Mgl, MaxDisp, FixedRowOrder, Ripup, Recovery };
inline constexpr int kNumPipelineStages = 5;

const char* stageName(PipelineStage stage);

enum class FaultKind {
  StageThrow,      // MclgError(Injected) after the stage has mutated state
  InvariantBreak,  // corrupt the placement so the post-stage audit fails
  BudgetExhaust,   // run the stage under an already-expired Deadline
  TaskThrow,       // throw from MGL's per-cell checkpoint / stage body
};
inline constexpr int kNumFaultKinds = 4;

const char* faultKindName(FaultKind kind);

struct FaultSpec {
  PipelineStage stage = PipelineStage::Mgl;
  FaultKind kind = FaultKind::StageThrow;
  int attempt = 0;  // fires on this 0-based attempt of the stage
};

/// A deterministic set of synthetic faults. Injection is keyed on
/// (stage, kind, attempt), so a fault armed for attempt 0 does not re-fire
/// on the retry — the standard way to exercise the rollback-then-recover
/// path.
class FaultPlan {
 public:
  FaultPlan() = default;

  void add(PipelineStage stage, FaultKind kind, int attempt = 0);

  /// One pseudo-random fault derived from `seed` (SplitMix64 mixing, stable
  /// across platforms) — the fuzzing entry point: any seed must degrade
  /// gracefully, never abort.
  static FaultPlan fromSeed(std::uint64_t seed);

  bool empty() const { return specs_.empty(); }
  bool armed(PipelineStage stage, FaultKind kind, int attempt) const;
  const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
};

enum class StageStatus {
  NotRun,               // pipeline aborted before reaching this stage
  Disabled,             // stage toggled off in PipelineConfig
  Ok,                   // clean first attempt
  OkAfterRetry,         // failed, rolled back, succeeded on a later attempt
  SkippedAfterRollback, // optional stage failed every attempt; state restored
  FallbackApplied,      // MGL failed; Tetris baseline placed the cells
  Failed,               // no recovery possible; state restored to pre-stage
};

const char* stageStatusName(StageStatus status);

/// Outcome of one stage transaction. `attempts` counts actual runs of the
/// stage body, so a report distinguishes "ran fast" (attempts = 1,
/// small seconds) from "did not run" (attempts = 0, Disabled/NotRun).
struct StageRecord {
  PipelineStage stage = PipelineStage::Mgl;
  StageStatus status = StageStatus::NotRun;
  int attempts = 0;
  double seconds = 0.0;      // wall clock across all attempts + recovery
  double scoreBefore = -1.0; // Eq. 10 entering the stage; -1 = not measured
  double scoreAfter = -1.0;  // Eq. 10 after the stage committed
  std::string detail;        // failure / recovery log, "; "-separated
};

struct GuardConfig {
  /// Off by default in the library: guarded runs re-evaluate legality and
  /// Eq. 10 at every stage boundary, which costs a full-design audit per
  /// stage. The CLI turns it on by default (--no-guard opts out).
  bool enabled = false;
  /// Allowed relative Eq. 10 regression per post-MGL stage before rollback
  /// (before MGL the cells are unplaced, so the score is undefined).
  double scoreTolerance = 0.05;
  /// Wall-clock budget per stage attempt; <= 0 means unlimited. MGL
  /// cancels cooperatively at batch boundaries; the single-threaded stages
  /// are checked at the stage boundary.
  double stageBudgetSeconds = 0.0;
  /// Request-scoped budget (serving, flow/serve/): a deadline captured at
  /// request admission that bounds the *whole* run across all stages and
  /// attempts. Each stage runs under the earlier of this and its own
  /// per-attempt budget, so an over-budget request fails fast instead of
  /// burning the remaining stages' budgets. Unlimited by default — batch
  /// and CLI runs are unaffected.
  Deadline requestDeadline;
  /// Attempts per stage (1 initial + retries after rollback, relaxed where
  /// the stage has a relaxation). An optional stage that fails every
  /// attempt is skipped.
  int maxAttempts = 2;
  bool allowFallback = true;  // Tetris baseline if MGL fails every attempt
  FaultPlan faults;           // test-only deterministic fault injection
};

struct GuardReport {
  GuardReport();

  std::array<StageRecord, kNumPipelineStages> stages;  // by stage order
  bool degraded = false;     // some stage needed retry / skip / fallback
  bool failed = false;       // some stage failed with no recovery
  int infeasibleCells = 0;   // movable cells left unplaced at the end
  /// The Eq. 10 evaluation of the last audit that committed a stage. Each
  /// stage either commits through an audit or is rolled back, so at the
  /// end of a guarded legalize() this scores the placement it returns;
  /// empty when the guard was off or no stage committed.
  std::optional<ScoreBreakdown> finalScore;

  StageRecord& at(PipelineStage stage);
  const StageRecord& at(PipelineStage stage) const;

  /// Fixed-width per-stage summary table (status, attempts, time, scores).
  std::string summary() const;
};

}  // namespace mclg
