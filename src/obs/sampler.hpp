// Low-overhead telemetry sampler: one background thread that beats every
// `intervalMs`, snapshotting process vitals (wall/CPU time, RSS) and the
// metrics registry (delta-encoded via obs/metrics_delta.hpp), and handing
// each beat to a caller-supplied emit callback.
//
// The sampler is transport-agnostic — in a supervised worker the callback
// wraps beats into Heartbeat + MetricsDelta frames on the supervisor pipe
// (flow/supervisor.cpp), which the supervisor folds into a BatchLedger;
// mclg_serve uses the beats to print its periodic status line. Because
// the sampler thread beats independently of the compute threads, a missing
// beat at the receiver means the *process* is wedged, not merely busy —
// the signal behind supervisor stall detection (docs/ROBUSTNESS.md).
//
// stop() joins the thread and then emits one final beat (last = true) from
// the calling thread, so the stream always ends with a delta that brings
// the receiver's fold exactly up to the sender's final counter values, and
// so no emit callback can race a subsequent writer on the same fd.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics_delta.hpp"

namespace mclg::obs {

/// One sampler beat. `metricsDelta` is empty when no metric moved since
/// the previous beat (senders then emit only the heartbeat).
struct TelemetrySample {
  std::uint64_t sequence = 0;
  const char* phase = "";
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  long rssKb = 0;
  std::string metricsDelta;
  bool last = false;  ///< final beat, emitted from stop()
};

struct SamplerConfig {
  int intervalMs = 100;
  /// Refresh point-in-time gauges (e.g. executor queue depth / parked
  /// workers) just before the registry snapshot. May be empty.
  std::function<void()> preSample;
  /// Receives every beat; called on the sampler thread, except the final
  /// beat which stop() emits from its caller. Must not throw.
  std::function<void(const TelemetrySample&)> emit;
};

class MetricsSampler {
 public:
  MetricsSampler() = default;
  ~MetricsSampler() { stop(); }
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  void start(SamplerConfig config);
  /// Idempotent: joins the thread and emits the final beat (once).
  void stop();
  bool running() const { return running_; }

  /// Coarse run phase shown in heartbeats; must be a string literal.
  void setPhase(const char* phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }

  /// Process CPU time (utime + stime, getrusage).
  static double processCpuSeconds();
  /// Current resident set size in KiB (/proc/self/statm; 0 if unreadable).
  static long processRssKb();

 private:
  void loop();
  void sampleOnce(bool last);

  SamplerConfig config_;
  MetricsDeltaEncoder encoder_;
  std::uint64_t sequence_ = 0;
  std::atomic<const char*> phase_{""};
  std::chrono::steady_clock::time_point startedAt_{};
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopRequested_ = false;
  bool running_ = false;
};

}  // namespace mclg::obs
