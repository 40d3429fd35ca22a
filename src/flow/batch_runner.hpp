// Per-design building blocks of mclg_batch: the manifest format, the
// deterministic shard split, and runBatchItem, which loads, legalizes and
// saves one design. The supervisor (flow/supervisor.hpp) runs each item in
// its own worker process; runBatchItem is the worker body.
//
// Determinism: a design's result depends only on its input and the
// per-design pipeline config, never on the rest of the manifest or on how
// many workers run at once, and is byte-identical to a solo legalize() run
// of the same design. Supervisor.MatchesSoloRunsByteForByte asserts this
// by placement hash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/worker_protocol.hpp"
#include "legal/pipeline.hpp"

namespace mclg {

struct BatchRunConfig {
  /// Template config applied to every design. runBatchItem copies it and
  /// overrides its thread budget with threadsPerDesign
  /// (PipelineConfig::setThreads semantics).
  PipelineConfig pipeline;
  /// Stage-parallel lanes inside each design (1 = each design runs
  /// serially in its worker — the highest-throughput setting for small
  /// designs).
  int threadsPerDesign = 1;
  /// Evaluate the contest score per design (needs an extra metrics pass;
  /// off for throughput benches).
  bool evaluateScores = false;
};

struct BatchDesignResult {
  std::string name;
  bool ok = false;
  /// Machine-readable failure kind, as the worker reports it and the
  /// supervisor refines it (flow/worker_protocol.hpp): `ok` above is
  /// exactly workerStatusOk(status).
  WorkerStatus status = WorkerStatus::Exception;
  std::string error;       ///< parse/IO/pipeline failure when !ok
  double seconds = 0.0;    ///< wall clock of this design's pipeline
  std::uint64_t placementHash = 0;  ///< eval placementHash after legalize
  double score = 0.0;      ///< contest score when evaluateScores, else 0
  int numCells = 0;        ///< movable + fixed cells of the loaded design
  PipelineStats stats;
  // Filled by the supervisor (flow/supervisor.hpp), not by runBatchItem.
  int attempts = 0;        ///< worker runs, 1 + retries
  int lastSignal = 0;      ///< signal that killed the last attempt, 0 = none
  std::string reportJson;  ///< worker's streamed run report, verbatim
};

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

/// A design's name: its input filename without directory and extension.
std::string manifestNameOf(const std::string& inputPath);

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
/// exception. The body of every supervised worker (flow/supervisor.hpp).
BatchDesignResult runBatchItem(const BatchManifestItem& item,
                               const BatchRunConfig& config);

}  // namespace mclg
