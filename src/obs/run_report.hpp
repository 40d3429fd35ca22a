// Machine-readable run reports: one versioned JSON document per run,
// merging the pipeline's PipelineStats + GuardReport, the metrics
// registry, the quality metrics from src/eval, and build/config
// provenance. Bench binaries emit the same schema ("kind":"bench") so CI
// can diff legalize runs and benchmark sweeps with one parser. The schema
// is documented in docs/OBSERVABILITY.md; bump kRunReportSchemaVersion on
// any breaking field change.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/score.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/pipeline.hpp"

namespace mclg::obs {

/// v2 (PR 3): adds the perf-overhaul metric families to the metrics block —
/// `mgl.curve_cache.*`, `mgl.insert.seed_dedup`, the `mgl.window.candidates`
/// histogram and `mcf.simplex.warm.*`. Purely additive: v1 consumers that
/// ignore unknown fields keep working.
///
/// v3 (PR 4): adds the optional top-level `eco` block emitted by the
/// `--eco-from` incremental mode (`eco.dirty_windows`, `eco.reused_windows`,
/// `eco.warm_restarts`, `eco.cold_fallbacks`, plus the delta/fallback/
/// exactness fields — see docs/ECO.md). Additive as before; absent on full
/// runs.
///
/// v4 (PR 5): adds the executor's metric families to the metrics block —
/// `executor.chunk_grabs`, `executor.parks` / `executor.unparks`,
/// `executor.batches` counters and the `executor.queue_depth` high-water
/// gauge (see docs/PERFORMANCE.md). Additive: v2/v3 consumers that ignore
/// unknown metric names keep working. Three v4 names are no longer
/// written: `executor.steals` and `executor.submitted` went with the
/// work-stealing deques and `Executor::submit`, and
/// `executor.designs_in_flight` with the in-process batch mode
/// (`supervisor.workers_in_flight`, v5, is its successor).
///
/// v5 (PR 6): adds the batch supervisor's metric families (see
/// docs/ROBUSTNESS.md) — the `supervisor.spawns` / `supervisor.restarts` / `supervisor.retries` /
/// `supervisor.crashes` (+ `supervisor.crash.signal.<N>`) /
/// `supervisor.timeouts` / `supervisor.kills` / `supervisor.exhausted`
/// counters with the `supervisor.workers_in_flight` high-water gauge —
/// plus the `process_isolation` / `shard_index` / `shard_count` and
/// per-design `status` / `attempts` values in mclg_batch bench reports.
/// `process_isolation` is no longer written: the supervisor is mclg_batch's
/// only mode, and every design row carries `attempts`; nor is v5's
/// `executor.tasks.escaped_exceptions`, since no executor task can throw
/// past its batch any more. Additive as before.
///
/// v6 (PR 7): live-telemetry additions (see docs/OBSERVABILITY.md "Live
/// telemetry") — `p50` / `p95` / `p99` quantile estimates in every
/// histogram entry (raw `pow2_buckets` kept), the `supervisor.heartbeats`
/// / `supervisor.stalls_detected` / `supervisor.trace_chunks` (+
/// `.dropped`) counters with the `supervisor.heartbeat_gap_ms` histogram,
/// the sampled `executor.parked_workers` gauge, and the top-level `batch`
/// aggregate block in mclg_batch reports (per-design rollups, attempt
/// history, folded worker counters/gauges, heartbeat gap histogram —
/// rendered by obs/batch_ledger.hpp). Additive as before.
///
/// Nothing writes v1–v5 any more, so the in-tree readers
/// (scripts/check_report_schema.py, tests/cli_end_to_end.cmake) accept v6
/// only; bumping this constant means updating both and
/// docs/report_schema_fields.json.
inline constexpr int kRunReportSchemaVersion = 6;

/// Where the run came from: everything needed to reproduce it.
struct RunProvenance {
  std::string design;        // design name from the input
  int numCells = 0;
  std::string preset;        // "contest" / "totaldisp" / bench-specific
  int threads = 1;
  std::uint64_t seed = 0;    // generator seed when known, 0 otherwise
  bool guardEnabled = false;
  std::string configText;    // full configToText() dump, optional
};

/// Render the "kind":"legalize" report. `score` may be null (quality block
/// omitted); the metrics block snapshots the registry when
/// `includeMetrics` is set. `eco` may be null (block omitted — full runs).
std::string renderRunReport(const RunProvenance& provenance,
                            const PipelineStats& stats,
                            const ScoreBreakdown* score, bool includeMetrics,
                            const EcoStats* eco = nullptr);

bool writeRunReport(const std::string& path, const RunProvenance& provenance,
                    const PipelineStats& stats, const ScoreBreakdown* score,
                    bool includeMetrics, const EcoStats* eco = nullptr);

/// Render the "kind":"bench" report: same envelope (schema_version,
/// provenance, metrics registry), with the benchmark's named values in
/// place of the pipeline blocks.
std::string renderBenchReport(
    const std::string& benchName,
    const std::vector<std::pair<std::string, double>>& values);

bool writeBenchReport(const std::string& path, const std::string& benchName,
                      const std::vector<std::pair<std::string, double>>& values);

class BatchLedger;

/// renderBenchReport plus the v6 top-level `batch` aggregate block folded
/// by `ledger` (obs/batch_ledger.hpp) — the document mclg_batch writes.
std::string renderBatchReport(
    const std::string& benchName,
    const std::vector<std::pair<std::string, double>>& values,
    const BatchLedger& ledger);

bool writeBatchReport(const std::string& path, const std::string& benchName,
                      const std::vector<std::pair<std::string, double>>& values,
                      const BatchLedger& ledger);

}  // namespace mclg::obs
