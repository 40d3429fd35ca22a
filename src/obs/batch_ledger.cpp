#include "obs/batch_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mclg::obs {

void BatchLedger::workerStarted(const std::string& design, int pid,
                                int attempt, double nowSeconds) {
  if (firstStartAt_ < 0.0) firstStartAt_ = nowSeconds;
  retryPending_.erase(design);
  RunningWorker worker;
  worker.pid = pid;
  worker.attempt = attempt;
  worker.startedAt = nowSeconds;
  worker.lastBeatAt = nowSeconds;
  running_[design] = std::move(worker);
}

void BatchLedger::heartbeat(const std::string& design, std::uint64_t sequence,
                            const std::string& phase, double wallSeconds,
                            double cpuSeconds, long rssKb, double nowSeconds) {
  ++heartbeats_;
  if (metricsEnabled()) {
    static Counter& beats = counter("supervisor.heartbeats");
    beats.add();
  }
  auto it = running_.find(design);
  if (it == running_.end()) return;  // beat raced the design's completion
  RunningWorker& worker = it->second;
  observeGap((nowSeconds - worker.lastBeatAt) * 1000.0);
  worker.lastBeatAt = nowSeconds;
  worker.lastSequence = sequence;
  worker.phase = phase;
  worker.wallSeconds = wallSeconds;
  worker.cpuSeconds = cpuSeconds;
  worker.rssKb = rssKb;
  worker.stallReported = false;  // alive again — re-arm stall detection
}

bool BatchLedger::metricsDelta(const std::string& design,
                               const std::string& payload) {
  (void)design;
  return applyMetricsDelta(payload, &folded_);
}

void BatchLedger::designFinished(const std::string& design,
                                 const DesignOutcome& outcome,
                                 double nowSeconds) {
  (void)nowSeconds;
  running_.erase(design);
  attempts_.push_back({design, outcome.attempt, outcome.status});
  if (outcome.retrying) {
    retryPending_.insert(design);
    return;
  }
  retryPending_.erase(design);
  FinishedDesign finished;
  finished.design = design;
  finished.status = outcome.status;
  finished.ok = outcome.ok;
  finished.seconds = outcome.seconds;
  finished.cells = outcome.cells;
  finished.score = outcome.score;
  finished.attempts = outcome.attempt;
  finished_.push_back(std::move(finished));
}

std::vector<std::string> BatchLedger::detectStalls(double nowSeconds,
                                                   double thresholdSeconds) {
  std::vector<std::string> stalled;
  if (thresholdSeconds <= 0.0) return stalled;
  for (auto& [design, worker] : running_) {
    if (worker.stallReported) continue;
    if (nowSeconds - worker.lastBeatAt <= thresholdSeconds) continue;
    worker.stallReported = true;
    ++stallsDetected_;
    if (metricsEnabled()) {
      static Counter& stalls = counter("supervisor.stalls_detected");
      stalls.add();
    }
    stalled.push_back(design);
  }
  return stalled;
}

void BatchLedger::observeGap(double gapMs) {
  if (!(gapMs >= 0.0)) gapMs = 0.0;
  int bucket = 0;
  if (gapMs >= 1.0) {
    bucket = 1 + std::min(kGapBuckets - 2, std::ilogb(gapMs));
  }
  ++gapBuckets_[bucket];
  ++gapCount_;
  gapSumMs_ += gapMs;
  gapMaxMs_ = std::max(gapMaxMs_, gapMs);
  if (metricsEnabled()) {
    static Histogram& gaps = histogram("supervisor.heartbeat_gap_ms");
    gaps.observe(gapMs);
  }
}

std::string BatchLedger::renderStatusLine(double nowSeconds) const {
  // Slowest in-flight design (falling back to the slowest finished one
  // when nothing is running), with its current phase when known.
  std::string slowest;
  std::string slowestPhase;
  double slowestSeconds = -1.0;
  for (const auto& [design, worker] : running_) {
    const double seconds = nowSeconds - worker.startedAt;
    if (seconds > slowestSeconds) {
      slowestSeconds = seconds;
      slowest = design;
      slowestPhase = worker.phase;
    }
  }
  if (slowest.empty()) {
    for (const FinishedDesign& finished : finished_) {
      if (finished.seconds > slowestSeconds) {
        slowestSeconds = finished.seconds;
        slowest = finished.design;
      }
    }
  }

  long long cells = 0;
  for (const FinishedDesign& finished : finished_) {
    if (finished.ok) cells += finished.cells;
  }
  const double elapsed =
      firstStartAt_ >= 0.0 ? nowSeconds - firstStartAt_ : 0.0;
  const double cellsPerSecond = elapsed > 0.0 ? cells / elapsed : 0.0;

  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "[batch] %d/%d done, %d running, %d retrying", done(), total_,
                running(), retrying());
  std::string out = buffer;
  if (!slowest.empty()) {
    std::snprintf(buffer, sizeof buffer, " | slowest %s %.1fs",
                  slowest.c_str(), slowestSeconds);
    out += buffer;
    if (!slowestPhase.empty()) {
      out += " (" + slowestPhase + ")";
    }
  }
  std::snprintf(buffer, sizeof buffer, " | %.0f cells/s | stalls %lld",
                cellsPerSecond, stallsDetected_);
  out += buffer;
  return out;
}

void BatchLedger::writeBatchBlock(JsonWriter& w) const {
  int ok = 0;
  long long cells = 0;
  double secondsSum = 0.0;
  std::string slowest;
  double slowestSeconds = -1.0;
  for (const FinishedDesign& finished : finished_) {
    if (finished.ok) {
      ++ok;
      cells += finished.cells;
    }
    secondsSum += finished.seconds;
    if (finished.seconds > slowestSeconds) {
      slowestSeconds = finished.seconds;
      slowest = finished.design;
    }
  }

  w.key("batch").beginObject();
  w.field("designs_total", total_);
  w.field("designs_done", done());
  w.field("designs_ok", ok);
  w.field("designs_failed", done() - ok);
  w.field("attempts_total", static_cast<std::int64_t>(attempts_.size()));
  w.field("heartbeats", heartbeats_);
  w.field("stalls_detected", stallsDetected_);
  w.field("cells_total", cells);
  w.field("seconds_sum", secondsSum);
  if (!slowest.empty()) {
    w.key("slowest").beginObject();
    w.field("design", slowest);
    w.field("seconds", slowestSeconds);
    w.endObject();
  }

  w.key("designs").beginArray();
  for (const FinishedDesign& finished : finished_) {
    w.beginObject();
    w.field("design", finished.design);
    w.field("status", finished.status);
    w.field("ok", finished.ok);
    w.field("attempts", finished.attempts);
    w.field("seconds", finished.seconds);
    w.field("cells", finished.cells);
    w.field("score", finished.score);
    w.endObject();
  }
  w.endArray();

  w.key("attempts").beginArray();
  for (const AttemptRecord& attempt : attempts_) {
    w.beginObject();
    w.field("design", attempt.design);
    w.field("attempt", attempt.attempt);
    w.field("status", attempt.status);
    w.endObject();
  }
  w.endArray();

  std::vector<long long> buckets(gapBuckets_, gapBuckets_ + kGapBuckets);
  int last = -1;
  for (int b = 0; b < kGapBuckets; ++b) {
    if (buckets[static_cast<std::size_t>(b)] != 0) last = b;
  }
  buckets.resize(static_cast<std::size_t>(last + 1));
  w.key("heartbeat_gap_ms").beginObject();
  w.field("count", gapCount_);
  w.field("sum", gapSumMs_);
  w.field("max", gapMaxMs_);
  w.field("p50", histogramQuantile(buckets, 0.50, gapMaxMs_));
  w.field("p95", histogramQuantile(buckets, 0.95, gapMaxMs_));
  w.field("p99", histogramQuantile(buckets, 0.99, gapMaxMs_));
  w.key("pow2_buckets").beginArray();
  for (const long long bucket : buckets) w.value(bucket);
  w.endArray();
  w.endObject();

  w.key("counters").beginObject();
  for (const auto& [name, value] : folded_.counters) w.field(name, value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, value] : folded_.gauges) w.field(name, value);
  w.endObject();

  w.endObject();
}

}  // namespace mclg::obs
