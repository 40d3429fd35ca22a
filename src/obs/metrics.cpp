#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace mclg::obs {
namespace {

std::atomic<bool> g_enabled{false};

struct MetricsRegistry {
  std::mutex mutex;
  // Node-based maps: references handed out stay valid forever.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry& registry() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked by design
  return *r;
}

}  // namespace

namespace detail {

int threadShard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

}  // namespace detail

bool metricsEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void setMetricsEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  if (!(v >= 0.0)) v = 0.0;  // negatives and NaN clamp into bucket 0
  int bucket = 0;
  if (v >= 1.0) {
    bucket = 1 + std::min(kBuckets - 2, std::ilogb(v));
  }
  auto& shard = shards_[detail::threadShard() % 4];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double curMax = max_.load(std::memory_order_relaxed);
  while (v > curMax && !max_.compare_exchange_weak(
                           curMax, v, std::memory_order_relaxed)) {
  }
}

long long Histogram::bucketCount(int bucket) const {
  long long total = 0;
  for (const auto& shard : shards_) {
    total += shard.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

long long Histogram::count() const {
  long long total = 0;
  for (int b = 0; b < kBuckets; ++b) total += bucketCount(b);
  return total;
}

void Histogram::reset() {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>(name);
  return *slot;
}

Gauge& gauge(const std::string& name) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>(name);
  return *slot;
}

Histogram& histogram(const std::string& name) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(name);
  return *slot;
}

void metricsReset() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

MetricsSnapshot metricsSnapshot() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  for (const auto& [name, c] : r.counters) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : r.histograms) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.count = h->count();
    value.sum = h->sum();
    value.max = h->maxValue();
    value.buckets.resize(Histogram::kBuckets);
    int last = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      value.buckets[static_cast<std::size_t>(b)] = h->bucketCount(b);
      if (value.buckets[static_cast<std::size_t>(b)] != 0) last = b;
    }
    value.buckets.resize(static_cast<std::size_t>(last + 1));
    snap.histograms.push_back(std::move(value));
  }
  return snap;
}

double histogramQuantile(const std::vector<long long>& buckets, double q,
                         double observedMax) {
  long long total = 0;
  for (const long long b : buckets) total += b;
  if (total <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double inBucket = static_cast<double>(buckets[i]);
    if (inBucket <= 0.0) continue;
    if (cumulative + inBucket >= target) {
      const double lower = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double upper = i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i));
      const double fraction = (target - cumulative) / inBucket;
      return std::min(lower + fraction * (upper - lower), observedMax);
    }
    cumulative += inBucket;
  }
  return std::min(std::ldexp(1.0, static_cast<int>(buckets.size())),
                  observedMax);
}

long long MetricsSnapshot::counterValue(const std::string& name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  return it != counters.end() && it->first == name ? it->second : 0;
}

}  // namespace mclg::obs
