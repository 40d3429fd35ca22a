// Live-telemetry suite (`ctest -L obs`): the streaming worker metrics
// layer added with run-report schema v6 — Heartbeat/MetricsDelta wire
// framing (including byte-by-byte fuzz and sticky corruption), the delta
// encoder/accumulator exactness property, the sampler's final-beat flush,
// histogram quantile estimates, the multi-process trace merge, and the
// BatchLedger fold that backs `mclg_batch --live-status` and the v6
// `batch` report block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "flow/worker_protocol.hpp"
#include "json_test_reader.hpp"
#include "obs/batch_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_delta.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace_merge.hpp"

namespace mclg {
namespace {

using testjson::JsonValue;
using testjson::parseOrDie;

/// Registry state must never leak between tests (it is process-global).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setMetricsEnabled(false);
    obs::metricsReset();
  }
  void TearDown() override {
    obs::setMetricsEnabled(false);
    obs::metricsReset();
  }
};

// ---- Heartbeat wire format -------------------------------------------------

TEST(HeartbeatProtocol, RoundTrip) {
  WorkerHeartbeat in;
  in.pid = 4242;
  in.sequence = 17;
  in.phase = "legalize";
  in.wallSeconds = 1.5;
  in.cpuSeconds = 2.75;
  in.rssKb = 123456;
  WorkerHeartbeat out;
  ASSERT_TRUE(parseWorkerHeartbeat(serializeWorkerHeartbeat(in), &out));
  EXPECT_EQ(out.pid, in.pid);
  EXPECT_EQ(out.sequence, in.sequence);
  EXPECT_EQ(out.phase, in.phase);
  EXPECT_DOUBLE_EQ(out.wallSeconds, in.wallSeconds);
  EXPECT_DOUBLE_EQ(out.cpuSeconds, in.cpuSeconds);
  EXPECT_EQ(out.rssKb, in.rssKb);
}

TEST(HeartbeatProtocol, UnknownKeysSkippedMissingPidRejected) {
  WorkerHeartbeat out;
  // Forward compatibility: later senders may add keys; pid stays required.
  EXPECT_TRUE(parseWorkerHeartbeat(
      "pid=9\nseq=1\nfuture_key=whatever\nphase=report\n", &out));
  EXPECT_EQ(out.pid, 9);
  EXPECT_EQ(out.phase, "report");
  EXPECT_FALSE(parseWorkerHeartbeat("seq=1\nphase=report\n", &out));
  EXPECT_FALSE(parseWorkerHeartbeat("", &out));
  EXPECT_FALSE(parseWorkerHeartbeat("no equals sign at all", &out));
}

// ---- Telemetry frames through the FrameReader ------------------------------

std::string framesToBytes(
    const std::vector<std::pair<FrameType, std::string>>& frames) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(pipe(fds), 0);
  for (const auto& [type, payload] : frames) {
    EXPECT_TRUE(writeFrame(fds[1], type, payload));
  }
  close(fds[1]);
  std::string bytes;
  char buffer[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buffer, sizeof buffer)) > 0) {
    bytes.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  return bytes;
}

TEST(HeartbeatProtocol, TelemetryFramesSurviveByteByByteFeeding) {
  WorkerHeartbeat heartbeat;
  heartbeat.pid = 7;
  heartbeat.sequence = 3;
  heartbeat.phase = "legalize";
  const std::string bytes = framesToBytes(
      {{FrameType::Heartbeat, serializeWorkerHeartbeat(heartbeat)},
       {FrameType::MetricsDelta, "c mgl.cells 12\ng exec.depth 3\n"},
       {FrameType::TraceChunk, "1\t10\t5\tspan\t{}\n"},
       {FrameType::Result, "status=ok\n"}});

  // Worst-case fragmentation: one byte per feed, interleaved with take().
  FrameReader reader;
  std::vector<FrameReader::Frame> frames;
  for (const char byte : bytes) {
    reader.feed(&byte, 1);
    for (auto& frame : reader.take()) frames.push_back(std::move(frame));
  }
  EXPECT_FALSE(reader.corrupted());
  EXPECT_EQ(reader.pendingBytes(), 0u);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::Heartbeat);
  WorkerHeartbeat parsed;
  ASSERT_TRUE(parseWorkerHeartbeat(frames[0].payload, &parsed));
  EXPECT_EQ(parsed.pid, 7);
  EXPECT_EQ(frames[1].type, FrameType::MetricsDelta);
  EXPECT_EQ(frames[2].type, FrameType::TraceChunk);
  EXPECT_EQ(frames[3].type, FrameType::Result);
}

TEST(HeartbeatProtocol, UnknownFrameTypeIsStickyCorruption) {
  // A header with valid magic but a frame type past the telemetry range
  // must latch corruption exactly like bad magic does — and stay latched
  // when well-formed telemetry frames follow.
  std::string header;
  const auto putU32 = [&header](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  putU32(kFrameMagic);
  putU32(99);  // no such FrameType
  putU32(4);
  FrameReader reader;
  reader.feed(header.data(), header.size());
  EXPECT_TRUE(reader.corrupted());
  EXPECT_TRUE(reader.take().empty());

  WorkerHeartbeat heartbeat;
  heartbeat.pid = 1;
  const std::string good = framesToBytes(
      {{FrameType::Heartbeat, serializeWorkerHeartbeat(heartbeat)}});
  reader.feed(good.data(), good.size());
  EXPECT_TRUE(reader.corrupted());
  EXPECT_TRUE(reader.take().empty());
}

TEST(HeartbeatProtocol, EveryTruncationAndSingleByteCorruptionIsSafe) {
  // Fuzz the decoder with every truncation point and every single-byte
  // corruption of a two-frame telemetry stream: the reader must never
  // produce a frame payload that wasn't sent, and must either stay clean
  // (waiting for more bytes) or latch corrupted — no crashes, no giant
  // allocations.
  WorkerHeartbeat heartbeat;
  heartbeat.pid = 31337;
  heartbeat.sequence = 5;
  heartbeat.phase = "legalize";
  const std::string bytes = framesToBytes(
      {{FrameType::Heartbeat, serializeWorkerHeartbeat(heartbeat)},
       {FrameType::MetricsDelta, "c a 1\nc b 2\n"}});

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader reader;
    reader.feed(bytes.data(), cut);
    const auto frames = reader.take();
    EXPECT_LE(frames.size(), 2u) << "cut " << cut;
    EXPECT_FALSE(reader.corrupted()) << "cut " << cut;  // truncated != corrupt
  }
  for (std::size_t flip = 0; flip < bytes.size(); ++flip) {
    std::string mutated = bytes;
    mutated[flip] = static_cast<char>(mutated[flip] ^ 0x5a);
    FrameReader reader;
    reader.feed(mutated.data(), mutated.size());
    for (const auto& frame : reader.take()) {
      // Any frame that still comes out intact must be one of the two sent
      // payloads — a flipped payload byte is allowed through (the framing
      // layer has no checksum; parsers above reject it), but framing-level
      // damage must never fabricate oversized or misaligned frames.
      EXPECT_LE(frame.payload.size(), bytes.size()) << "flip " << flip;
    }
  }
}

// ---- Metrics delta encoding ------------------------------------------------

TEST(MetricsDelta, EncodesOnlyChangesAndFoldsExactly) {
  obs::MetricsDeltaEncoder encoder;
  obs::MetricsSnapshot snap;
  snap.counters = {{"a", 5}, {"b", 0}};
  snap.gauges = {{"g1", 2.5}};
  const std::string first = encoder.encode(snap);
  EXPECT_NE(first.find("c a 5"), std::string::npos);
  EXPECT_EQ(first.find("c b"), std::string::npos);  // zero: never moved
  EXPECT_NE(first.find("g g1 2.5"), std::string::npos);

  // Nothing moved: empty payload, caller skips the frame.
  EXPECT_EQ(encoder.encode(snap), "");

  snap.counters = {{"a", 7}, {"b", 3}};
  snap.gauges = {{"g1", 2.5}};
  const std::string second = encoder.encode(snap);
  EXPECT_NE(second.find("c a 2"), std::string::npos);  // 7 - 5
  EXPECT_NE(second.find("c b 3"), std::string::npos);
  EXPECT_EQ(second.find("g g1"), std::string::npos);  // unchanged gauge

  obs::MetricsAccumulator acc;
  ASSERT_TRUE(applyMetricsDelta(first, &acc));
  ASSERT_TRUE(applyMetricsDelta(second, &acc));
  EXPECT_EQ(acc.counterValue("a"), 7);
  EXPECT_EQ(acc.counterValue("b"), 3);
  EXPECT_DOUBLE_EQ(acc.gauges.at("g1"), 2.5);
}

TEST(MetricsDelta, RandomWalkFoldReproducesFinalValues) {
  // Property: for any sequence of monotone counter advances and gauge
  // moves, applying every encoded delta in order reproduces the final
  // snapshot exactly. Deterministic LCG so failures replay.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto nextRand = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };

  const int kCounters = 7;
  const int kGauges = 3;
  std::map<std::string, long long> counters;
  std::map<std::string, double> gauges;
  for (int c = 0; c < kCounters; ++c) counters["ctr" + std::to_string(c)] = 0;
  for (int g = 0; g < kGauges; ++g) gauges["gau" + std::to_string(g)] = 0.0;

  obs::MetricsDeltaEncoder encoder;
  obs::MetricsAccumulator acc;
  for (int round = 0; round < 200; ++round) {
    // Advance a random subset; some rounds advance nothing.
    for (auto& [name, value] : counters) {
      if (nextRand() % 3 == 0) value += static_cast<long long>(nextRand() % 1000);
    }
    for (auto& [name, value] : gauges) {
      if (nextRand() % 4 == 0) value = static_cast<double>(nextRand() % 10000) / 8.0;
    }
    obs::MetricsSnapshot snap;
    snap.counters.assign(counters.begin(), counters.end());
    snap.gauges.assign(gauges.begin(), gauges.end());
    const std::string delta = encoder.encode(snap);
    if (!delta.empty()) {
      ASSERT_TRUE(applyMetricsDelta(delta, &acc)) << "round " << round;
    }
  }
  for (const auto& [name, value] : counters) {
    EXPECT_EQ(acc.counterValue(name), value) << name;
  }
  for (const auto& [name, value] : gauges) {
    if (value != 0.0) {
      ASSERT_TRUE(acc.gauges.count(name)) << name;
      EXPECT_DOUBLE_EQ(acc.gauges.at(name), value) << name;
    }
  }
}

TEST(MetricsDelta, MalformedPayloadIsRejectedAtomically) {
  obs::MetricsAccumulator acc;
  ASSERT_TRUE(applyMetricsDelta("c good 5\n", &acc));
  // One good line + one bad line: nothing from the payload may apply.
  for (const char* bad :
       {"c also_good 1\nx wat 3\n",   // unknown record kind
        "c also_good 1\nc broken\n",  // missing value
        "c also_good 1\nc broken 1x2\n",  // trailing junk in the number
        "c also_good 1\ng broken\n", "c\n", "c  5\n"}) {
    EXPECT_FALSE(applyMetricsDelta(bad, &acc)) << bad;
    EXPECT_EQ(acc.counterValue("also_good"), 0) << "partial apply: " << bad;
  }
  EXPECT_EQ(acc.counterValue("good"), 5);
}

// ---- Histogram quantiles ---------------------------------------------------

TEST(Quantiles, InterpolatesInsideTheCrossingBucket) {
  EXPECT_DOUBLE_EQ(obs::histogramQuantile({}, 0.5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile({0, 0, 0}, 0.99, 0.0), 0.0);
  // 4 observations in bucket 2 = [2, 4): p50 lands mid-bucket.
  EXPECT_DOUBLE_EQ(obs::histogramQuantile({0, 0, 4}, 0.5, 3.9), 3.0);
  // 10 in [0,1) + 10 in [1,2): p50 at the boundary, p99 near the top.
  const std::vector<long long> twoBuckets = {10, 10};
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(twoBuckets, 0.5, 1.99), 1.0);
  const double p99 = obs::histogramQuantile(twoBuckets, 0.99, 1.99);
  EXPECT_GT(p99, 1.9);
  EXPECT_LE(p99, 1.99);
  // Quantiles are monotone in q.
  const std::vector<long long> mixed = {3, 1, 4, 1, 5, 9, 2, 6};
  double prev = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const double v = obs::histogramQuantile(mixed, q, 127.0);
    EXPECT_GE(v, prev) << q;
    prev = v;
  }
}

TEST_F(TelemetryTest, QuantilesNeverExceedTheObservedMaximum) {
  // 98 observations of 100 and two of 300: p99 lands in the top bucket
  // [256, 512), which holds only the two 300s. Interpolating across the
  // whole bucket would report p99 = 384, above everything observed.
  obs::setMetricsEnabled(true);
  obs::Histogram& hist = obs::histogram("tmtest.top_bucket");
  for (int i = 0; i < 98; ++i) hist.observe(100.0);
  hist.observe(300.0);
  hist.observe(300.0);
  const obs::MetricsSnapshot snap = obs::metricsSnapshot();
  const auto it = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "tmtest.top_bucket"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_DOUBLE_EQ(it->max, 300.0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(it->buckets, 0.99, it->max), 300.0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(it->buckets, 1.0, it->max), 300.0);
  // Quantiles below the top bucket are untouched by the clamp.
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(it->buckets, 0.49, it->max), 96.0);
  // The report fields use the same clamp.
  const JsonValue report = parseOrDie(obs::renderBenchReport("tmtest", {}));
  const JsonValue& entry =
      report.at("metrics").at("histograms").at("tmtest.top_bucket");
  EXPECT_DOUBLE_EQ(entry.at("p99").number, 300.0);
  EXPECT_LE(entry.at("p95").number, 300.0);
}

TEST_F(TelemetryTest, ReportHistogramsCarryPercentileFields) {
  obs::setMetricsEnabled(true);
  obs::metricsReset();
  obs::Histogram& hist = obs::histogram("tmtest.latency");
  for (int v = 1; v <= 100; ++v) hist.observe(static_cast<double>(v));
  const JsonValue report = parseOrDie(obs::renderBenchReport("tmtest", {}));
  EXPECT_EQ(report.at("schema_version").number, 6.0);
  const JsonValue& entry =
      report.at("metrics").at("histograms").at("tmtest.latency");
  ASSERT_TRUE(entry.has("p50"));
  ASSERT_TRUE(entry.has("p95"));
  ASSERT_TRUE(entry.has("p99"));
  ASSERT_TRUE(entry.has("pow2_buckets"));  // raw buckets stay available
  EXPECT_EQ(entry.at("count").number, 100.0);
  // Pow2 resolution: the estimates must rank correctly and bracket the
  // true quantiles within their bucket.
  EXPECT_GT(entry.at("p50").number, 16.0);
  EXPECT_LE(entry.at("p50").number, 64.0);
  EXPECT_GE(entry.at("p95").number, entry.at("p50").number);
  EXPECT_GE(entry.at("p99").number, entry.at("p95").number);
  EXPECT_LE(entry.at("p99").number, 128.0);
}

// ---- Sampler ---------------------------------------------------------------

TEST_F(TelemetryTest, SamplerFinalBeatFlushesExactCounterDelta) {
  obs::setMetricsEnabled(true);
  obs::metricsReset();
  obs::Counter& work = obs::counter("tmtest.sampler.work");

  std::mutex mutex;
  std::vector<obs::TelemetrySample> samples;
  obs::MetricsSampler sampler;
  obs::SamplerConfig config;
  config.intervalMs = 5;
  config.emit = [&](const obs::TelemetrySample& sample) {
    std::lock_guard<std::mutex> lock(mutex);
    samples.push_back(sample);
  };
  sampler.start(std::move(config));
  sampler.setPhase("legalize");
  for (int i = 0; i < 20; ++i) {
    work.add(3);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.stop();
  sampler.stop();  // idempotent: no second final beat
  EXPECT_FALSE(sampler.running());

  ASSERT_FALSE(samples.empty());
  // Exactly one final beat, and it is the last sample.
  int finals = 0;
  for (const auto& sample : samples) finals += sample.last ? 1 : 0;
  EXPECT_EQ(finals, 1);
  EXPECT_TRUE(samples.back().last);
  // Sequences increase, wall clock does not go backwards.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].sequence, samples[i - 1].sequence);
    EXPECT_GE(samples[i].wallSeconds, samples[i - 1].wallSeconds);
  }
  // The fold of every streamed delta equals the final counter value —
  // the exactness contract behind the supervisor's batch fold.
  obs::MetricsAccumulator acc;
  for (const auto& sample : samples) {
    if (!sample.metricsDelta.empty()) {
      ASSERT_TRUE(applyMetricsDelta(sample.metricsDelta, &acc));
    }
  }
  EXPECT_EQ(acc.counterValue("tmtest.sampler.work"), work.value());
  EXPECT_EQ(acc.counterValue("tmtest.sampler.work"), 60);
}

// ---- Trace merge -----------------------------------------------------------

std::vector<obs::TraceSpanRecord> spansFixture() {
  return {
      {1, 100, 50, "stage/a", "{}"},
      {1, 160, 20, "stage/b", "{\"k\":1}"},
      {2, 90, 400, "design", "{}"},
  };
}

TEST(TraceMerge, ChunkRoundTripsAndRejectsMalformedLines) {
  const auto spans = spansFixture();
  std::vector<obs::TraceSpanRecord> parsed;
  ASSERT_TRUE(obs::parseTraceChunk(obs::serializeTraceSpans(spans), &parsed));
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].tid, spans[i].tid);
    EXPECT_EQ(parsed[i].tsUs, spans[i].tsUs);
    EXPECT_EQ(parsed[i].durUs, spans[i].durUs);
    EXPECT_EQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].args, spans[i].args);
  }

  for (const char* bad :
       {"1\t2\t3\tname",          // missing args column
        "1\t\t3\tname\t{}",       // empty ts
        "x\t2\t3\tname\t{}",      // non-numeric tid
        "1\t2x\t3\tname\t{}",     // trailing junk in ts
        "1\t2\t3\t\t{}"}) {       // empty name
    std::vector<obs::TraceSpanRecord> out;
    EXPECT_FALSE(obs::parseTraceChunk(bad, &out)) << bad;
    EXPECT_TRUE(out.empty()) << bad;
  }
}

TEST(TraceMerge, MergedDocumentHasOneOrderedLanePerWorker) {
  obs::TraceMerger merger;
  merger.addWorker(101, "design_a");
  merger.addWorker(202, "design_b");
  // Chunks arrive out of timestamp order and before/after registration.
  ASSERT_TRUE(merger.addChunk(101, obs::serializeTraceSpans(spansFixture())));
  merger.addSpans(303, {{1, 500, 10, "late/registration", "{}"}});
  merger.addWorker(303, "design_c");
  ASSERT_TRUE(merger.addChunk(
      202, "5\t900\t10\tz\t{}\n5\t100\t10\ta\t{}\n5\t400\t10\tm\t{}\n"));
  EXPECT_FALSE(merger.addChunk(101, "garbage with no tabs"));
  EXPECT_EQ(merger.workerLanes(), 3u);
  EXPECT_EQ(merger.spanCount(), 7u);

  const JsonValue doc = parseOrDie(merger.render());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::Array);

  std::map<double, std::string> processNames;
  std::map<std::pair<double, double>, std::vector<double>> laneTimestamps;
  for (const JsonValue& event : events.array) {
    if (event.at("name").string == "process_name") {
      processNames[event.at("pid").number] =
          event.at("args").at("name").string;
    } else if (event.at("ph").string == "X") {
      laneTimestamps[{event.at("pid").number, event.at("tid").number}]
          .push_back(event.at("ts").number);
    }
  }
  // One labeled process lane per worker pid.
  ASSERT_EQ(processNames.size(), 3u);
  EXPECT_EQ(processNames.at(101.0), "design_a");
  EXPECT_EQ(processNames.at(202.0), "design_b");
  EXPECT_EQ(processNames.at(303.0), "design_c");
  // Timestamps are monotonic within every (pid, tid) lane.
  for (const auto& [lane, timestamps] : laneTimestamps) {
    for (std::size_t i = 1; i < timestamps.size(); ++i) {
      EXPECT_LE(timestamps[i - 1], timestamps[i])
          << "pid " << lane.first << " tid " << lane.second;
    }
  }
}

// ---- BatchLedger -----------------------------------------------------------

TEST(BatchLedger, LifecycleCountsAndStatusLine) {
  obs::BatchLedger ledger(3);
  ledger.workerStarted("d0", 100, 1, 0.0);
  ledger.workerStarted("d1", 101, 1, 0.0);
  EXPECT_EQ(ledger.running(), 2);
  EXPECT_EQ(ledger.done(), 0);

  ledger.heartbeat("d0", 1, "legalize", 0.1, 0.1, 1000, 0.1);
  EXPECT_EQ(ledger.heartbeats(), 1);

  obs::BatchLedger::DesignOutcome ok;
  ok.status = "ok";
  ok.ok = true;
  ok.seconds = 2.0;
  ok.cells = 500;
  ok.attempt = 1;
  ledger.designFinished("d0", ok, 2.0);

  // d1 crashes but will be retried: not done, marked retrying.
  obs::BatchLedger::DesignOutcome crashed;
  crashed.status = "crashed";
  crashed.retrying = true;
  crashed.attempt = 1;
  ledger.designFinished("d1", crashed, 2.1);
  EXPECT_EQ(ledger.done(), 1);
  EXPECT_EQ(ledger.retrying(), 1);
  EXPECT_EQ(ledger.running(), 0);

  const std::string line = ledger.renderStatusLine(2.5);
  EXPECT_NE(line.find("[batch] 1/3 done"), std::string::npos) << line;
  EXPECT_NE(line.find("1 retrying"), std::string::npos) << line;
  EXPECT_NE(line.find("cells/s"), std::string::npos) << line;

  // The retry lands and succeeds: retrying clears, done advances.
  ledger.workerStarted("d1", 102, 2, 2.2);
  EXPECT_EQ(ledger.retrying(), 0);
  obs::BatchLedger::DesignOutcome retried = ok;
  retried.attempt = 2;
  ledger.designFinished("d1", retried, 3.0);
  EXPECT_EQ(ledger.done(), 2);
}

TEST(BatchLedger, StallDetectionReportsOncePerSilenceAndRearms) {
  obs::BatchLedger ledger(2);
  ledger.workerStarted("slow", 100, 1, 0.0);
  ledger.workerStarted("hung", 101, 1, 0.0);

  // Both beat at t=1; "slow" keeps beating, "hung" goes silent.
  ledger.heartbeat("slow", 1, "legalize", 1.0, 1.0, 0, 1.0);
  ledger.heartbeat("hung", 1, "legalize", 1.0, 1.0, 0, 1.0);
  EXPECT_TRUE(ledger.detectStalls(1.5, 1.0).empty());

  ledger.heartbeat("slow", 2, "legalize", 2.5, 2.5, 0, 2.5);
  const auto stalled = ledger.detectStalls(3.0, 1.0);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "hung");  // slow is slow, not hung
  EXPECT_EQ(ledger.stallsDetected(), 1);
  // Silence already reported: not re-reported while it persists.
  ledger.heartbeat("slow", 3, "legalize", 3.5, 3.5, 0, 3.5);
  EXPECT_TRUE(ledger.detectStalls(4.0, 1.0).empty());
  // A new beat re-arms detection; a new silence counts again.
  ledger.heartbeat("hung", 2, "legalize", 4.5, 4.5, 0, 4.5);
  ledger.heartbeat("slow", 4, "legalize", 4.5, 4.5, 0, 4.5);
  EXPECT_TRUE(ledger.detectStalls(5.0, 1.0).empty());
  ledger.heartbeat("slow", 5, "legalize", 5.8, 5.8, 0, 5.8);
  const auto restalled = ledger.detectStalls(6.0, 1.0);
  ASSERT_EQ(restalled.size(), 1u);
  EXPECT_EQ(restalled[0], "hung");
  EXPECT_EQ(ledger.stallsDetected(), 2);
}

TEST(BatchLedger, BatchBlockAggregatesTheFold) {
  obs::BatchLedger ledger(2);
  ledger.workerStarted("d0", 100, 1, 0.0);
  ledger.heartbeat("d0", 1, "legalize", 0.2, 0.2, 0, 0.2);
  ledger.heartbeat("d0", 2, "legalize", 0.4, 0.4, 0, 0.4);
  ASSERT_TRUE(ledger.metricsDelta("d0", "c mgl.moved 10\ng depth 2\n"));
  ASSERT_TRUE(ledger.metricsDelta("d0", "c mgl.moved 5\n"));
  obs::BatchLedger::DesignOutcome ok;
  ok.status = "ok";
  ok.ok = true;
  ok.seconds = 1.5;
  ok.cells = 400;
  ok.attempt = 1;
  ledger.designFinished("d0", ok, 1.5);
  ledger.workerStarted("d1", 101, 1, 0.5);
  obs::BatchLedger::DesignOutcome failed;
  failed.status = "timeout";
  failed.attempt = 1;
  ledger.designFinished("d1", failed, 3.0);

  obs::JsonWriter w;
  w.beginObject();
  ledger.writeBatchBlock(w);
  w.endObject();
  const JsonValue doc = parseOrDie(w.take());
  const JsonValue& batch = doc.at("batch");
  EXPECT_EQ(batch.at("designs_total").number, 2.0);
  EXPECT_EQ(batch.at("designs_done").number, 2.0);
  EXPECT_EQ(batch.at("designs_ok").number, 1.0);
  EXPECT_EQ(batch.at("designs_failed").number, 1.0);
  EXPECT_EQ(batch.at("attempts_total").number, 2.0);
  EXPECT_EQ(batch.at("heartbeats").number, 2.0);
  EXPECT_EQ(batch.at("cells_total").number, 400.0);
  EXPECT_EQ(batch.at("slowest").at("design").string, "d0");
  ASSERT_EQ(batch.at("designs").array.size(), 2u);
  EXPECT_EQ(batch.at("designs").array[1].at("status").string, "timeout");
  ASSERT_EQ(batch.at("attempts").array.size(), 2u);
  EXPECT_EQ(batch.at("counters").at("mgl.moved").number, 15.0);
  EXPECT_EQ(batch.at("gauges").at("depth").number, 2.0);
  const JsonValue& gaps = batch.at("heartbeat_gap_ms");
  EXPECT_EQ(gaps.at("count").number, 2.0);
  ASSERT_TRUE(gaps.has("p50"));
  ASSERT_TRUE(gaps.has("pow2_buckets"));
}

}  // namespace
}  // namespace mclg
