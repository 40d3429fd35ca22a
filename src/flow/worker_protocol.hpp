// Wire protocol between the batch supervisor (flow/supervisor.{hpp,cpp})
// and its fork/exec'd per-design workers, plus the WorkerStatus vocabulary
// both sides use to report design outcomes.
//
// A worker inherits one pipe write end and streams *frames* over it:
//
//   +--------+--------+--------+----------------------+
//   | magic  | type   | length | payload (length B)   |
//   | u32 LE | u32 LE | u32 LE |                      |
//   +--------+--------+--------+----------------------+
//
// Frame types: Result (a serialized WorkerResult — status, timing,
// placement hash, score, error text) and Report (the worker's versioned
// run-report JSON, docs/OBSERVABILITY.md, passed through verbatim) end a
// run; Heartbeat (pid, phase, wall/CPU time, RSS), MetricsDelta
// (delta-encoded counter/gauge snapshots, obs/metrics_delta.hpp), and
// TraceChunk (serialized trace spans, obs/trace_merge.hpp) stream live
// telemetry while the run is in flight. The supervisor reads frames
// incrementally (FrameReader copes with arbitrary read() fragmentation)
// and never trusts the worker: a bad magic, an oversized length, an
// unknown frame type, or a truncated payload surfaces as
// WorkerStatus::Protocol, not as supervisor memory corruption.
//
// The legalization daemon (tools/mclg_serve, flow/serve/) reuses the same
// envelope in the opposite direction: clients stream *request* frames
// (LoadDesign, EcoDelta, Commit, Rollback, Query, Shutdown — payload
// codecs in flow/serve/serve_protocol.hpp) and the daemon answers each
// with one Response frame. The full wire format, including byte layouts
// and the rules for adding frame types, is documented normatively in
// docs/PROTOCOL.md.
//
// Exit codes reuse the guard contract (GuardExitCode, legal/guard/):
// workerStatusFromExit / workerStatusToExit map between the 0/2/3/4/5
// process vocabulary and WorkerStatus, so a worker that dies before
// framing anything still reports a meaningful outcome through waitpid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mclg {

/// Outcome of one design run, as a worker computes it (runBatchItem) or the
/// supervisor observes it. The first six values mirror the
/// GuardExitCode contract; the rest are supervisor-observed outcomes a
/// process can only have *done to it* (signal, timeout, spawn failure).
enum class WorkerStatus {
  Ok,             ///< legalized, fully legal (exit 0)
  GuardDegraded,  ///< legalized only after guard degradation (exit 2)
  Infeasible,     ///< infeasible cells remain / not legal (exit 3)
  ParseError,     ///< input failed to parse (exit 4)
  Exception,      ///< escaped exception / internal error (exit 5)
  IoError,        ///< usage or IO failure, e.g. unwritable output (exit 1)
  Crashed,        ///< worker killed by a signal (WorkerResult::signal)
  Timeout,        ///< supervisor killed it after --design-timeout
  Protocol,       ///< worker exited without a parseable Result frame
  SpawnFailed,    ///< fork/exec itself failed
};

const char* workerStatusName(WorkerStatus status);

/// Did the design end in a usable placement? (Ok or GuardDegraded.)
bool workerStatusOk(WorkerStatus status);

/// Should the supervisor re-run the design? Only non-deterministic process
/// deaths are worth retrying: crashes, timeouts, internal errors, protocol
/// violations, spawn failures. Deterministic failures (parse, infeasible,
/// IO) would fail identically again.
bool workerStatusRetryable(WorkerStatus status);

/// Map a worker's process exit code (guard contract 0/2/3/4/5, 1 = usage)
/// to a status; unknown codes map to Exception.
WorkerStatus workerStatusFromExit(int exitCode);

/// Inverse mapping for worker mains: the exit code a worker should return
/// for a status it computed itself.
int workerStatusToExit(WorkerStatus status);

// ---- Frames ----------------------------------------------------------------

/// Wire values are load-bearing (docs/PROTOCOL.md): never renumber, only
/// append — FrameReader treats any value outside [Result, Response] as
/// sticky corruption, which is exactly how an old reader rejects a frame
/// type it was never taught.
enum class FrameType : std::uint32_t {
  Result = 1,       ///< serialized WorkerResult
  Report = 2,       ///< run-report JSON, verbatim
  Heartbeat = 3,    ///< serialized WorkerHeartbeat (liveness + phase)
  MetricsDelta = 4, ///< delta-encoded metrics snapshot (obs/metrics_delta)
  TraceChunk = 5,   ///< serialized trace spans (obs/trace_merge)
  // ---- Serving requests (client -> mclg_serve; flow/serve/) ----
  LoadDesign = 6,   ///< register a tenant with a full .mclg design text
  EcoDelta = 7,     ///< move/resize/add ops to ECO-relegalize incrementally
  Commit = 8,       ///< promote the tenant's placement to its new snapshot
  Rollback = 9,     ///< discard uncommitted state; restore the snapshot
  Query = 10,       ///< read-only: status / score / report / design text
  Shutdown = 11,    ///< end the connection (or, if allowed, the daemon)
  Response = 12,    ///< daemon -> client: one reply per request, in order
};

inline constexpr std::uint32_t kFrameMagic = 0x4d434c47u;  // "MCLG"
/// Upper bound on a frame payload the supervisor will accept (a run report
/// with full metrics is ~10 KiB; 16 MiB leaves three orders of headroom
/// while still bounding a corrupted length field).
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// What a worker knows about its own run, serialized into a Result frame.
/// The supervisor merges this with what only it can observe (exit code,
/// signal, timeout) into the final BatchDesignResult.
struct WorkerResult {
  WorkerStatus status = WorkerStatus::Exception;
  double seconds = 0.0;            ///< wall clock of the pipeline
  std::uint64_t placementHash = 0;
  double score = 0.0;              ///< contest score when evaluated, else 0
  int numCells = 0;
  std::string error;               ///< failure detail when !workerStatusOk
};

/// Serialize / parse the Result payload (newline-separated `key=value`
/// text; the error value is sanitized to a single line). parse returns
/// false on any malformed payload.
std::string serializeWorkerResult(const WorkerResult& result);
bool parseWorkerResult(const std::string& payload, WorkerResult* result);

/// Periodic liveness beacon emitted by the worker's sampler thread
/// (obs/sampler.hpp). Because the sampler beats independently of the
/// compute thread, a missing heartbeat means the *process* is wedged
/// (hung), while flowing heartbeats with a long wall clock merely mean
/// the design is slow — the distinction behind supervisor stall detection
/// (docs/ROBUSTNESS.md).
struct WorkerHeartbeat {
  int pid = 0;
  std::uint64_t sequence = 0;   ///< monotonic per-worker beat counter
  std::string phase;            ///< coarse run phase ("parse", "legalize", ...)
  double wallSeconds = 0.0;     ///< wall clock since the run started
  double cpuSeconds = 0.0;      ///< process CPU time (utime+stime)
  long rssKb = 0;               ///< resident set size, KiB (0 if unknown)
};

/// Serialize / parse the Heartbeat payload (same newline-separated
/// `key=value` shape as WorkerResult; unknown keys skipped, the phase is
/// sanitized to one line). parse returns false on malformed payloads.
std::string serializeWorkerHeartbeat(const WorkerHeartbeat& heartbeat);
bool parseWorkerHeartbeat(const std::string& payload,
                          WorkerHeartbeat* heartbeat);

/// Write one frame to `fd`, restarting on EINTR. Returns false on any
/// write error (e.g. the supervisor died and the pipe broke) — workers
/// treat that as fatal-but-quiet and still exit with their status code.
bool writeFrame(int fd, FrameType type, const std::string& payload);

/// Incremental frame parser: feed() raw bytes in any fragmentation, take()
/// complete frames out. Corruption (bad magic / oversized length / unknown
/// frame type) is sticky: corrupted() stays set and no further frames are
/// produced.
class FrameReader {
 public:
  struct Frame {
    FrameType type = FrameType::Result;
    std::string payload;
  };

  void feed(const char* data, std::size_t size);
  /// Frames completed so far, in arrival order; the internal list is
  /// cleared. Never returns frames after corruption.
  std::vector<Frame> take();
  bool corrupted() const { return corrupted_; }
  /// Bytes buffered but not yet forming a complete frame — nonzero at
  /// worker EOF means a truncated frame (WorkerStatus::Protocol).
  std::size_t pendingBytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::vector<Frame> frames_;
  bool corrupted_ = false;
};

}  // namespace mclg
