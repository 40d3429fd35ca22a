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

/// v8 removed `eco.warm_restarts` and `eco.cold_fallbacks` (ECO stage 3
/// solves each component once, cold). Nothing writes an older version, so
/// the in-tree readers (scripts/check_report_schema.py,
/// tests/cli_end_to_end.cmake) accept v8 only; bumping this constant means
/// updating both and docs/report_schema_fields.json.
inline constexpr int kRunReportSchemaVersion = 8;

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
