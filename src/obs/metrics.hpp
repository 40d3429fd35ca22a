// Process-wide metrics registry: named counters, gauges, and histograms.
//
// Counters shard their cells across a small fixed set of cache-line-padded
// atomics indexed by a per-thread slot, so concurrent MGL workers never
// contend on one line; value() aggregates the shards at read time. Gauges
// are single atomics (written from the serial pipeline driver). Histograms
// bucket by powers of two with sharded bucket counts.
//
// Instrumentation sites guard on metricsEnabled() — one relaxed atomic
// load — and cache the registry lookup in a function-local static, so a
// disabled run pays a branch per site and nothing else:
//
//   if (obs::metricsEnabled()) {
//     static obs::Counter& c = obs::counter("mgl.insert.attempted");
//     c.add();
//   }
//
// Registry entries are created on first use and live for the process
// lifetime (reset() zeroes values but never invalidates references).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mclg::obs {

/// Global metrics switch, same contract as tracingEnabled().
bool metricsEnabled();
void setMetricsEnabled(bool enabled);

namespace detail {
inline constexpr int kCounterShards = 16;
/// Small dense per-thread slot in [0, kCounterShards), assigned on first
/// use; distinct live threads get distinct slots until the space wraps.
int threadShard();
}  // namespace detail

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(long long delta = 1) {
    cells_[detail::threadShard()].v.fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  long long value() const {
    long long total = 0;
    for (const auto& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (auto& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Cell {
    std::atomic<long long> v{0};
  };
  std::string name_;
  Cell cells_[detail::kCounterShards];
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Power-of-two histogram for non-negative observations: bucket i counts
/// values in [2^(i-1), 2^i) (bucket 0 counts [0, 1)). Tracks count/sum/max
/// alongside the buckets.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void observe(double v);

  long long count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double maxValue() const { return max_.load(std::memory_order_relaxed); }
  long long bucketCount(int bucket) const;
  void reset();
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  struct alignas(64) Shard {
    std::atomic<long long> buckets[kBuckets] = {};
  };
  Shard shards_[4];
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Registry lookups: create-on-first-use, stable references, O(log n) under
/// a mutex — call once per site and cache (see the header comment).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Zero every registered metric (references stay valid).
void metricsReset();

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    long long count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::vector<long long> buckets;  // trailing zero buckets trimmed
  };
  std::vector<std::pair<std::string, long long>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramValue> histograms;

  /// Counter value by exact name; 0 when absent.
  long long counterValue(const std::string& name) const;
};

MetricsSnapshot metricsSnapshot();

/// Quantile estimate (q in [0, 1]) from pow2 buckets (bucket 0 = [0, 1),
/// bucket i = [2^(i-1), 2^i)): linear interpolation inside the bucket
/// where the cumulative count crosses q * total, clamped to the largest
/// observed value (interpolating across a partly filled top bucket would
/// otherwise report quantiles above the maximum). Returns 0 for an empty
/// histogram. The estimate is exact to within the bucket resolution —
/// good enough to rank regressions, which is what the p50/p95/p99 report
/// fields are for.
double histogramQuantile(const std::vector<long long>& buckets, double q,
                         double observedMax);

}  // namespace mclg::obs
