#include "obs/run_report.hpp"

#include <cstdio>

#include "obs/batch_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mclg::obs {
namespace {

void writeProvenance(JsonWriter& w, const RunProvenance& p) {
  w.key("provenance").beginObject();
  w.field("tool", "mclg");
  w.field("design", p.design);
  w.field("cells", p.numCells);
  w.field("preset", p.preset);
  w.field("threads", p.threads);
  w.field("seed", static_cast<std::int64_t>(p.seed));
  w.field("guard", p.guardEnabled);
#ifdef MCLG_TRACING_DISABLED
  w.field("tracing_compiled", false);
#else
  w.field("tracing_compiled", true);
#endif
  if (!p.configText.empty()) w.field("config", p.configText);
  w.endObject();
}

void writeMetricsBlock(JsonWriter& w) {
  const MetricsSnapshot snap = metricsSnapshot();
  w.key("metrics").beginObject();
  w.key("counters").beginObject();
  for (const auto& [name, value] : snap.counters) w.field(name, value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, value] : snap.gauges) w.field(name, value);
  w.endObject();
  w.key("histograms").beginObject();
  for (const auto& hist : snap.histograms) {
    w.key(hist.name).beginObject();
    w.field("count", hist.count);
    w.field("sum", hist.sum);
    w.field("max", hist.max);
    w.field("p50", histogramQuantile(hist.buckets, 0.50, hist.max));
    w.field("p95", histogramQuantile(hist.buckets, 0.95, hist.max));
    w.field("p99", histogramQuantile(hist.buckets, 0.99, hist.max));
    w.key("pow2_buckets").beginArray();
    for (const long long bucket : hist.buckets) w.value(bucket);
    w.endArray();
    w.endObject();
  }
  w.endObject();
  w.endObject();
}

void writeStageRecord(JsonWriter& w, const StageRecord& rec) {
  w.key(stageName(rec.stage)).beginObject();
  w.field("status", stageStatusName(rec.status));
  w.field("attempts", rec.attempts);
  w.field("wall_seconds", rec.seconds);
  w.field("score_before", rec.scoreBefore);
  w.field("score_after", rec.scoreAfter);
  if (!rec.detail.empty()) w.field("detail", rec.detail);
  w.endObject();
}

bool writeStringToFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace

std::string renderRunReport(const RunProvenance& provenance,
                            const PipelineStats& stats,
                            const ScoreBreakdown* score, bool includeMetrics,
                            const EcoStats* eco) {
  JsonWriter w;
  w.beginObject();
  w.field("schema_version", kRunReportSchemaVersion);
  w.field("kind", "legalize");
  writeProvenance(w, provenance);

  w.key("stages").beginObject();
  for (const StageRecord& rec : stats.guard.stages) writeStageRecord(w, rec);
  w.endObject();

  w.key("pipeline").beginObject();
  w.key("mgl").beginObject();
  w.field("placed", stats.mgl.placed);
  w.field("fallback_placed", stats.mgl.fallbackPlaced);
  w.field("failed", stats.mgl.failed);
  w.field("window_expansions",
          static_cast<std::int64_t>(stats.mgl.windowExpansions));
  w.field("seconds", stats.secondsMgl);
  w.endObject();
  w.key("maxdisp").beginObject();
  w.field("groups", stats.maxDisp.groups);
  w.field("cells_considered", stats.maxDisp.cellsConsidered);
  w.field("cells_moved", stats.maxDisp.cellsMoved);
  w.field("seconds", stats.secondsMaxDisp);
  w.endObject();
  w.key("fixed_row_order").beginObject();
  w.field("cells_moved", stats.fixedRowOrder.cellsMoved);
  w.field("objective_before", stats.fixedRowOrder.objectiveBefore);
  w.field("objective_after", stats.fixedRowOrder.objectiveAfter);
  w.field("seconds", stats.secondsFixedRowOrder);
  w.endObject();
  w.key("ripup").beginObject();
  w.field("attempted", stats.ripup.attempted);
  w.field("improved", stats.ripup.improved);
  w.field("gain", stats.ripup.gain);
  w.field("seconds", stats.secondsRipup);
  w.endObject();
  w.key("recovery").beginObject();
  w.field("cells_moved", stats.recovery.cellsMoved);
  w.field("hpwl_before", stats.recovery.hpwlBefore);
  w.field("hpwl_after", stats.recovery.hpwlAfter);
  w.field("seconds", stats.secondsRecovery);
  w.endObject();
  w.field("seconds_total", stats.secondsTotal());
  w.endObject();

  w.key("guard").beginObject();
  w.field("degraded", stats.guard.degraded);
  w.field("failed", stats.guard.failed);
  w.field("infeasible_cells", stats.guard.infeasibleCells);
  w.endObject();

  if (eco != nullptr) {
    w.key("eco").beginObject();
    w.field("moved_cells", eco->movedCells);
    w.field("resized_cells", eco->resizedCells);
    w.field("added_cells", eco->addedCells);
    w.field("dirty_cells", eco->dirtyCells);
    w.field("spilled_cells", eco->spilledCells);
    w.field("dirty_windows", eco->dirtyWindows);
    w.field("reused_windows", static_cast<std::int64_t>(eco->reusedWindows));
    w.field("matched_cells_moved", eco->matchedCellsMoved);
    w.field("ripup_improved", eco->ripupImproved);
    w.field("dirty_segments", eco->dirtySegments);
    w.field("warm_restarts", static_cast<std::int64_t>(eco->warmRestarts));
    w.field("cold_fallbacks", static_cast<std::int64_t>(eco->coldFallbacks));
    w.field("mcf_cells_moved", eco->mcfCellsMoved);
    w.field("used_full_run", eco->usedFullRun);
    if (!eco->fallbackReason.empty()) {
      w.field("fallback_reason", eco->fallbackReason);
    }
    w.field("exact_verified", eco->exactVerified);
    if (eco->scoreIncremental >= 0.0) {
      w.field("score_incremental", eco->scoreIncremental);
    }
    if (eco->scoreFull >= 0.0) w.field("score_full", eco->scoreFull);
    w.field("seconds_incremental", eco->secondsIncremental);
    w.field("seconds_shadow", eco->secondsShadow);
    w.endObject();
  }

  if (score != nullptr) {
    w.key("quality").beginObject();
    w.field("legal", score->legality.legal());
    w.field("unplaced", score->legality.unplacedCells);
    w.field("overlaps", score->legality.overlaps);
    w.field("parity_violations", score->legality.parityViolations);
    w.field("fence_violations", score->legality.fenceViolations);
    w.field("out_of_core", score->legality.outOfCore);
    w.field("avg_disp", score->displacement.average);
    w.field("max_disp", score->displacement.maximum);
    w.field("hpwl_ratio", score->hpwlRatio);
    w.field("pin_shorts", score->pins.shorts);
    w.field("pin_access", score->pins.access);
    w.field("edge_spacing", score->edgeSpacing);
    w.field("score", score->score);
    w.endObject();
  }

  if (includeMetrics) writeMetricsBlock(w);
  w.endObject();
  return w.take();
}

bool writeRunReport(const std::string& path, const RunProvenance& provenance,
                    const PipelineStats& stats, const ScoreBreakdown* score,
                    bool includeMetrics, const EcoStats* eco) {
  return writeStringToFile(
      path, renderRunReport(provenance, stats, score, includeMetrics, eco));
}

namespace {

std::string renderBenchDocument(
    const std::string& benchName,
    const std::vector<std::pair<std::string, double>>& values,
    const BatchLedger* ledger) {
  JsonWriter w;
  w.beginObject();
  w.field("schema_version", kRunReportSchemaVersion);
  w.field("kind", "bench");
  w.key("provenance").beginObject();
  w.field("tool", "mclg");
  w.field("bench", benchName);
#ifdef MCLG_TRACING_DISABLED
  w.field("tracing_compiled", false);
#else
  w.field("tracing_compiled", true);
#endif
  w.endObject();
  w.key("values").beginObject();
  for (const auto& [name, value] : values) w.field(name, value);
  w.endObject();
  if (ledger != nullptr) ledger->writeBatchBlock(w);
  writeMetricsBlock(w);
  w.endObject();
  return w.take();
}

}  // namespace

std::string renderBenchReport(
    const std::string& benchName,
    const std::vector<std::pair<std::string, double>>& values) {
  return renderBenchDocument(benchName, values, nullptr);
}

std::string renderBatchReport(
    const std::string& benchName,
    const std::vector<std::pair<std::string, double>>& values,
    const BatchLedger& ledger) {
  return renderBenchDocument(benchName, values, &ledger);
}

bool writeBatchReport(const std::string& path, const std::string& benchName,
                      const std::vector<std::pair<std::string, double>>& values,
                      const BatchLedger& ledger) {
  return writeStringToFile(path,
                           renderBatchReport(benchName, values, ledger));
}

bool writeBenchReport(const std::string& path, const std::string& benchName,
                      const std::vector<std::pair<std::string, double>>& values) {
  return writeStringToFile(path, renderBenchReport(benchName, values));
}

}  // namespace mclg::obs
