// Batch-wide run ledger: the supervisor-side fold of every worker's
// telemetry stream into one live view of the batch.
//
// The supervisor (flow/supervisor.cpp) feeds it worker lifecycle events
// plus the Heartbeat / MetricsDelta frames it demultiplexes off the worker
// pipes; `mclg_batch --live-status` renders it. The ledger answers three
// questions the final report can't:
//
//  * progress — designs done / running / retrying, the slowest design and
//    its current phase, aggregate cells/s (one line, renderStatusLine());
//  * liveness — which workers have stopped heartbeating. The sampler
//    thread beats independently of the compute threads, so a missing beat
//    means the process is wedged ("hung"), while beats flowing under a
//    long wall clock merely mean "slow". detectStalls() surfaces the
//    transition (once per silence) as `supervisor.stalls_detected`,
//    before the wall-clock timeout escalates to SIGTERM;
//  * aggregates — folded worker counters/gauges, per-design rollups, the
//    attempt/retry history, and the heartbeat-gap histogram, rendered as
//    the run report's v6 `batch` block (writeBatchBlock()).
//
// Counter folds are exact: every worker's sampler flushes a final delta,
// so the ledger's counters equal the sum of the per-design run reports
// (asserted in tests/test_supervisor.cpp). Time is injected by the caller
// (monotonic seconds) to keep the ledger deterministic under test.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics_delta.hpp"

namespace mclg::obs {

class JsonWriter;

class BatchLedger {
 public:
  static constexpr int kGapBuckets = 40;

  explicit BatchLedger(int totalDesigns = 0) : total_(totalDesigns) {}

  void setTotalDesigns(int n) { total_ = n; }

  /// A worker process started `attempt` of `design`. Clears any
  /// pending-retry mark for the design.
  void workerStarted(const std::string& design, int pid, int attempt,
                     double nowSeconds);

  void heartbeat(const std::string& design, std::uint64_t sequence,
                 const std::string& phase, double wallSeconds,
                 double cpuSeconds, long rssKb, double nowSeconds);

  /// Fold one MetricsDelta payload. Returns false on a malformed payload
  /// (nothing applied; callers count it as a protocol anomaly).
  bool metricsDelta(const std::string& design, const std::string& payload);

  struct DesignOutcome {
    std::string status;    // workerStatusName vocabulary
    bool ok = false;
    bool retrying = false; // this attempt failed but will be re-run
    double seconds = 0.0;
    int cells = 0;
    double score = 0.0;
    int attempt = 1;
  };
  void designFinished(const std::string& design, const DesignOutcome& outcome,
                      double nowSeconds);

  /// Designs whose workers have been silent for more than
  /// `thresholdSeconds` since their last beat (or start). Each silence is
  /// reported once — a new beat re-arms detection. Bumps the
  /// `supervisor.stalls_detected` counter per newly stalled worker.
  std::vector<std::string> detectStalls(double nowSeconds,
                                        double thresholdSeconds);

  int totalDesigns() const { return total_; }
  int done() const { return static_cast<int>(finished_.size()); }
  int running() const { return static_cast<int>(running_.size()); }
  int retrying() const { return static_cast<int>(retryPending_.size()); }
  long long heartbeats() const { return heartbeats_; }
  long long stallsDetected() const { return stallsDetected_; }
  const MetricsAccumulator& folded() const { return folded_; }

  /// `[batch] 3/8 done, 4 running, 1 retrying | slowest d5 12.4s (mcf) |
  /// 8421 cells/s | stalls 0` — the --live-status line.
  std::string renderStatusLine(double nowSeconds) const;

  /// Write the v6 `batch` aggregate block: `w.key("batch")` + object.
  void writeBatchBlock(JsonWriter& w) const;

 private:
  struct RunningWorker {
    int pid = 0;
    int attempt = 1;
    double startedAt = 0.0;
    double lastBeatAt = 0.0;
    std::uint64_t lastSequence = 0;
    std::string phase;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    long rssKb = 0;
    bool stallReported = false;
  };
  struct FinishedDesign {
    std::string design;
    std::string status;
    bool ok = false;
    double seconds = 0.0;
    int cells = 0;
    double score = 0.0;
    int attempts = 1;
  };
  struct AttemptRecord {
    std::string design;
    int attempt = 1;
    std::string status;
  };

  void observeGap(double gapMs);

  int total_ = 0;
  double firstStartAt_ = -1.0;
  std::map<std::string, RunningWorker> running_;
  std::set<std::string> retryPending_;
  std::vector<FinishedDesign> finished_;
  std::vector<AttemptRecord> attempts_;
  MetricsAccumulator folded_;
  long long heartbeats_ = 0;
  long long stallsDetected_ = 0;
  long long gapBuckets_[kGapBuckets] = {};
  long long gapCount_ = 0;
  double gapSumMs_ = 0.0;
  double gapMaxMs_ = 0.0;
};

}  // namespace mclg::obs
