// Multi-design throughput driver: legalize N designs concurrently on the
// shared work-stealing executor (util/executor/).
//
// Each design runs as one whole-run task (Executor::submit) with fully
// isolated state — its own Design, PlacementState, SegmentMap, stage
// scratch (all per-thread arenas in the stages are thread_local and rebuilt
// per use) and a per-design result record, so designs never share mutable
// state. Admission control caps the number of designs in flight; stage
// parallelism inside a design (threadsPerDesign > 1) borrows further lanes
// from the same executor via the config's ExecutorRef, so one worker set
// serves both levels without partitioning.
//
// Determinism: a design's result depends only on its input and the
// per-design pipeline config — never on the batch composition, admission
// order, executor width, or thread count — and is byte-identical to a
// solo legalize() run of the same design. The batch tests and
// bench_executor assert this by placement hash.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "flow/worker_protocol.hpp"
#include "legal/pipeline.hpp"
#include "util/executor/executor.hpp"

namespace mclg::obs {
class BatchLedger;
}  // namespace mclg::obs

namespace mclg {

struct BatchRunConfig {
  /// Template config applied to every design. The runner copies it per
  /// design, overrides its thread budget with threadsPerDesign
  /// (PipelineConfig::setThreads semantics) and points its ExecutorRef at
  /// `executor` below.
  PipelineConfig pipeline;
  /// Stage-parallel lanes inside each design (1 = each design runs
  /// serially on its worker — the highest-throughput setting for small
  /// designs).
  int threadsPerDesign = 1;
  /// Cap on designs legalizing concurrently (admission control);
  /// 0 = the executor's worker count.
  int maxInFlight = 0;
  /// Executor to run on (default: the process-wide one). Benches and tests
  /// inject a private, fixed-width executor here.
  ExecutorRef executor{};
  /// Evaluate the contest score per design (needs an extra metrics pass;
  /// off for throughput benches).
  bool evaluateScores = false;
  /// In-process telemetry parity with the supervisor (obs/batch_ledger.hpp):
  /// when set, runBatchManifest reports per-design start/finish events into
  /// the ledger so `mclg_batch --live-status` reads identically with and
  /// without --process-isolation. The runner serializes its ledger calls
  /// internally (BatchLedger itself is single-caller).
  obs::BatchLedger* ledger = nullptr;
  /// Throttled progress callback, fed BatchLedger::renderStatusLine after
  /// design completions; requires `ledger`.
  std::function<void(const std::string&)> onStatusLine;
  int statusIntervalMs = 200;
};

struct BatchDesignResult {
  std::string name;
  bool ok = false;
  /// Machine-readable failure kind, uniform across the in-process runner
  /// and the process-isolated supervisor (flow/worker_protocol.hpp):
  /// `ok` above is exactly workerStatusOk(status).
  WorkerStatus status = WorkerStatus::Exception;
  std::string error;       ///< parse/IO/pipeline failure when !ok
  double seconds = 0.0;    ///< wall clock of this design's pipeline
  std::uint64_t placementHash = 0;  ///< eval placementHash after legalize
  double score = 0.0;      ///< contest score when evaluateScores, else 0
  int numCells = 0;        ///< movable + fixed cells of the loaded design
  PipelineStats stats;
  // Supervisor-only fields (process-isolation mode; see flow/supervisor.hpp).
  int attempts = 0;        ///< worker runs, 1 + retries (0 = in-process mode)
  int lastSignal = 0;      ///< signal that killed the last attempt, 0 = none
  std::string reportJson;  ///< worker's streamed run report, verbatim
};

/// Legalize every design in place, up to maxInFlight concurrently.
/// Results are positionally aligned with `designs`. Never throws for
/// per-design failures — they come back with ok == false.
std::vector<BatchDesignResult> runBatch(
    const std::vector<std::pair<std::string, Design*>>& designs,
    const BatchRunConfig& config);

/// One line per design: `input [output]`, `#` comments and blank lines
/// skipped. The design name is the input filename without directory and
/// extension. With no output path the result is not written back.
struct BatchManifestItem {
  std::string name;
  std::string inputPath;
  std::string outputPath;  ///< empty = don't save
};

bool loadBatchManifest(const std::string& path,
                       std::vector<BatchManifestItem>* items,
                       std::string* error);

/// Deterministic manifest shard `index` of `count`: hosts running the same
/// manifest with i = 0..N-1 partition it exactly (round-robin by manifest
/// position, order preserved) with no coordination.
struct ShardSpec {
  int index = 0;
  int count = 1;
};

/// Parse "i/N" with 0 <= i < N (strict: no sign, no trailing junk).
bool parseShardSpec(const std::string& text, ShardSpec* spec,
                    std::string* error);

std::vector<BatchManifestItem> shardManifest(
    const std::vector<BatchManifestItem>& items, const ShardSpec& spec);

/// Load + legalize + save one manifest item with per-design isolation: all
/// failures (parse, pipeline, IO) come back in the result, never as an
/// exception. The building block of runBatchManifest and of the supervised
/// worker mode (flow/supervisor.hpp).
BatchDesignResult runBatchItem(const BatchManifestItem& item,
                               const BatchRunConfig& config);

/// File-level driver: each design task loads its input, legalizes, and
/// saves to the output path (when given) — I/O included in the concurrent
/// region so loading overlaps compute across designs.
std::vector<BatchDesignResult> runBatchManifest(
    const std::vector<BatchManifestItem>& items, const BatchRunConfig& config);

}  // namespace mclg
