// Crash-isolated batch fan-out: a supervisor that runs each manifest
// design in its own worker *process* so one bad_alloc, assertion, or OS
// kill poisons only that design, never the batch.
//
// The supervisor fork/execs one worker per design (mclg_batch --worker, or
// any binary whose main dispatches to supervisorWorkerMain, configured via
// workerCommand), up to maxConcurrent at a time. Each worker inherits a
// pipe and streams its result and versioned run report back as
// length-prefixed frames (flow/worker_protocol.hpp); the supervisor
// multiplexes the pipes with poll(), reaps with waitpid, and folds what
// only it can observe — exit code, terminating signal, wall-clock timeout —
// into the per-design WorkerStatus of the BatchDesignResult.
//
// Failure policy:
//  * A worker past designTimeoutSeconds gets SIGTERM, then SIGKILL after
//    killGraceSeconds; its design is recorded as Timeout.
//  * Crashed / timed-out / internal-error designs are retried up to
//    maxRetries times with exponential backoff (backoffMs << attempt);
//    deterministic failures (parse, infeasible, IO) are not retried.
//  * Healthy workers keep running while others die: there is no batch-wide
//    abort, and a design's placement bytes are identical to a solo run
//    (workers run the same pipeline config on a private process).
//
// Observability: supervisor.* counters (spawns, restarts, crashes by
// signal, timeouts, kill escalations, exhausted retries) land in run-report
// schema v5 (docs/OBSERVABILITY.md). Since schema v6 workers additionally
// stream live telemetry — Heartbeat and MetricsDelta frames every
// telemetrySampleMs from a sampler thread, plus one TraceChunk at run end
// when streamTrace is set — which the supervisor folds into a BatchLedger
// (live --live-status progress, heartbeat-based stall detection that tells
// a hung worker from a slow one before the SIGTERM escalation) and a
// TraceMerger (one Perfetto timeline with a process lane per worker pid).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "flow/batch_runner.hpp"

namespace mclg::obs {
class BatchLedger;
class TraceMerger;
}  // namespace mclg::obs

namespace mclg {

struct SupervisorConfig {
  /// Worker argv prefix; per-design arguments are appended:
  ///   <workerCommand...> --worker-input IN [--worker-output OUT]
  ///   --worker-fd FD --worker-attempt K [--preset P] [--threads N]
  ///   [--scores] [--worker-fault SPEC...] <extraWorkerArgs...>
  /// Defaults to {selfExecutablePath(), "--worker"} when empty — correct
  /// for mclg_batch and for test binaries that dispatch to
  /// supervisorWorkerMain on "--worker".
  std::vector<std::string> workerCommand;
  /// Extra argv appended to every worker (tests inject deterministic
  /// crash/fault specs here; see supervisorWorkerMain).
  std::vector<std::string> extraWorkerArgs;
  /// Workers running at once; 0 = hardware concurrency.
  int maxConcurrent = 0;
  /// Hard wall-clock budget per worker attempt; <= 0 = unlimited.
  double designTimeoutSeconds = 0.0;
  /// SIGTERM -> SIGKILL escalation grace.
  double killGraceSeconds = 2.0;
  /// Re-runs after a retryable failure (crash/timeout/internal).
  int maxRetries = 2;
  /// Base retry backoff; attempt k waits backoffMs << (k-1), capped at 30 s.
  int backoffMs = 100;
  /// Per-design pipeline settings forwarded to workers.
  std::string preset = "contest";
  int threadsPerDesign = 1;
  bool evaluateScores = false;

  // ---- Live telemetry (schema v6, docs/OBSERVABILITY.md) ----
  /// Worker sampler beat interval; <= 0 disables Heartbeat/MetricsDelta
  /// streaming (and stall detection with it).
  int telemetrySampleMs = 100;
  /// Workers trace their run and ship one TraceChunk frame at run end.
  bool streamTrace = false;
  /// Fold target for worker telemetry and per-design outcomes; optional —
  /// the supervisor keeps a private ledger when null (stall detection
  /// still works, callers just can't read the fold).
  obs::BatchLedger* ledger = nullptr;
  /// Merged-trace sink; worker lanes register at spawn. Only fed when
  /// streamTrace is set.
  obs::TraceMerger* traceMerger = nullptr;
  /// No heartbeat for this long marks a worker stalled ("hung", counted as
  /// supervisor.stalls_detected — vs merely "slow", which keeps beating);
  /// <= 0 picks max(2 s, 20 × telemetrySampleMs).
  double stallThresholdSeconds = 0.0;
  /// Throttled single-line progress callback (mclg_batch --live-status):
  /// called at most every statusIntervalMs with BatchLedger's status line,
  /// plus once after the batch drains.
  std::function<void(const std::string&)> onStatusLine;
  int statusIntervalMs = 200;
};

/// Run every manifest item in a supervised worker process. Results are
/// positionally aligned with `items`; per-design failures (including
/// crashes and timeouts) come back as statuses, never as exceptions or a
/// batch abort.
std::vector<BatchDesignResult> runSupervisedManifest(
    const std::vector<BatchManifestItem>& items, const SupervisorConfig& config);

/// Entry point for the worker side, shared by mclg_batch's `--worker` mode
/// and the supervisor tests' self-exec. Parses the worker argv produced by
/// the supervisor (argv[1] is `--worker`; any flag it does not produce is a
/// usage error), runs the design via runBatchItem, streams Result +
/// Report frames over --worker-fd, and returns the GuardExitCode-contract
/// exit code for its status.
///
/// Deterministic fault injection (tests and scripts/batch_stress.sh):
/// `--worker-fault <design>:<mode>:<n>` makes attempts 0..n-1 of the named
/// design fail — mode `segv` / `abort` / `kill` raises that signal with
/// default disposition (a real crash, sanitizer handlers bypassed), `hang`
/// ignores SIGTERM and sleeps forever (exercises the SIGKILL escalation),
/// and `degrade` arms the guard's FaultPlan so the run completes via the
/// skip-after-rollback path (exit 2).
int supervisorWorkerMain(int argc, char** argv);

/// A fault spec, `<design>:<segv|abort|kill|hang|degrade>:<n>` with n >= 1.
struct FaultSpecParts {
  std::string design;
  std::string mode;
  int count = 0;
};

/// The one fault-spec grammar: the worker's --worker-fault and
/// mclg_batch's --inject-fault. False on anything else.
bool splitFaultSpec(const std::string& spec, FaultSpecParts* parts);

/// /proc/self/exe when readable, else fallback (typically argv[0]).
std::string selfExecutablePath(const std::string& fallback);

}  // namespace mclg
