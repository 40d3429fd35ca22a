// Observability subsystem tests: trace JSON shape (span nesting + thread
// attribution), exact counter aggregation across executor lanes, run-report
// round-trips, structured logging, and the disabled-mode guarantees.
//
// The JSON checks use the minimal recursive-descent reader shared by the
// test suites (json_test_reader.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/score.hpp"
#include "gen/benchmark_gen.hpp"
#include "json_test_reader.hpp"
#include "legal/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "util/executor/executor.hpp"
#include "util/logging.hpp"

namespace mclg {
namespace {

using testjson::JsonValue;
using testjson::parseOrDie;

/// Every test starts and ends with observability off, so the process-global
/// registry state cannot leak between tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setTracingEnabled(false);
    obs::setMetricsEnabled(false);
    obs::traceReset();
    obs::metricsReset();
  }
  void TearDown() override {
    obs::setTracingEnabled(false);
    obs::setMetricsEnabled(false);
    obs::traceReset();
    obs::metricsReset();
  }
};

GenSpec tinySpec(std::uint64_t seed) {
  GenSpec spec;
  spec.cellsPerHeight = {300, 40, 15, 8};
  spec.density = 0.5;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST_F(ObsTest, JsonWriterEscapesAndNests) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("plain", "a\"b\\c\nd");
  w.field("int", static_cast<std::int64_t>(-7));
  w.field("flag", true);
  w.key("arr").beginArray();
  w.value(1.5);
  w.valueNull();
  w.endArray();
  w.endObject();
  const JsonValue v = parseOrDie(w.take());
  EXPECT_EQ(v.at("plain").string, "a\"b\\c\nd");
  EXPECT_EQ(v.at("int").number, -7.0);
  EXPECT_TRUE(v.at("flag").boolean);
  ASSERT_EQ(v.at("arr").array.size(), 2u);
  EXPECT_EQ(v.at("arr").array[0].number, 1.5);
  EXPECT_EQ(v.at("arr").array[1].kind, JsonValue::Kind::Null);
}

// ---------------------------------------------------------------------------
// Tracing

// Span-recording tests require the macro to be compiled in; with
// -DMCLG_TRACING=OFF it expands to nothing and there is nothing to assert.
#ifndef MCLG_TRACING_DISABLED
TEST_F(ObsTest, TraceNestingAndThreadAttribution) {
  obs::setTracingEnabled(true);
  obs::traceReset();
  {
    MCLG_TRACE_SCOPE("test/outer", {{"n", 2}});
    MCLG_TRACE_SCOPE("test/inner");
  }
  // Two explicit threads guarantee two more distinct thread tracks.
  std::thread t1([] { MCLG_TRACE_SCOPE("test/worker_a"); });
  t1.join();
  std::thread t2([] { MCLG_TRACE_SCOPE("test/worker_b"); });
  t2.join();
  obs::setTracingEnabled(false);
  EXPECT_EQ(obs::traceEventCount(), 4u);

  const JsonValue doc = parseOrDie(obs::renderChromeTrace());
  ASSERT_TRUE(doc.has("traceEvents"));
  const auto& events = doc.at("traceEvents").array;

  std::map<std::string, const JsonValue*> byName;
  std::set<double> spanTids;
  std::set<double> namedTids;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").string;
    if (ph == "M") {
      EXPECT_EQ(e.at("name").string, "thread_name");
      namedTids.insert(e.at("tid").number);
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("dur"));
    EXPECT_EQ(e.at("pid").number, 1.0);
    byName[e.at("name").string] = &e;
    spanTids.insert(e.at("tid").number);
  }
  ASSERT_EQ(byName.size(), 4u);

  // Nesting: the inner span lies within [ts, ts+dur] of the outer one.
  const JsonValue& outer = *byName.at("test/outer");
  const JsonValue& inner = *byName.at("test/inner");
  EXPECT_GE(inner.at("ts").number, outer.at("ts").number);
  EXPECT_LE(inner.at("ts").number + inner.at("dur").number,
            outer.at("ts").number + outer.at("dur").number);
  EXPECT_EQ(outer.at("args").at("n").number, 2.0);
  EXPECT_EQ(inner.at("tid").number, outer.at("tid").number);

  // Thread attribution: main + two workers = three distinct tracks, each
  // with a thread_name metadata record.
  EXPECT_EQ(spanTids.size(), 3u);
  EXPECT_NE(byName.at("test/worker_a")->at("tid").number,
            byName.at("test/worker_b")->at("tid").number);
  for (const double tid : spanTids) EXPECT_TRUE(namedTids.count(tid));
}

TEST_F(ObsTest, TraceResetDropsSpans) {
  obs::setTracingEnabled(true);
  { MCLG_TRACE_SCOPE("test/span"); }
  EXPECT_EQ(obs::traceEventCount(), 1u);
  obs::traceReset();
  EXPECT_EQ(obs::traceEventCount(), 0u);
  { MCLG_TRACE_SCOPE("test/span2"); }
  EXPECT_EQ(obs::traceEventCount(), 1u);
}
#endif  // MCLG_TRACING_DISABLED

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(obs::tracingEnabled());
  { MCLG_TRACE_SCOPE("test/ghost", {{"x", 1}}); }
  EXPECT_EQ(obs::traceEventCount(), 0u);
  const JsonValue doc = parseOrDie(obs::renderChromeTrace());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

// ---------------------------------------------------------------------------
// Metrics

TEST_F(ObsTest, CounterAggregatesExactlyAcrossWorkers) {
  obs::setMetricsEnabled(true);
  obs::Counter& c = obs::counter("test.agg");
  Executor executor(3);
  constexpr int kN = 1000;
  executor.parallelForBatch(kN, 4, [&](int i) { c.add(i + 1); });
  EXPECT_EQ(c.value(), static_cast<long long>(kN) * (kN + 1) / 2);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, GaugeAndHistogramBasics) {
  obs::setMetricsEnabled(true);
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(2.5);
  g.max(1.0);
  EXPECT_EQ(g.value(), 2.5);
  g.max(7.0);
  EXPECT_EQ(g.value(), 7.0);

  obs::Histogram& h = obs::histogram("test.hist");
  h.observe(0.5);   // bucket 0: [0, 1)
  h.observe(1.0);   // bucket 1: [1, 2)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(3.9);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 8.4);
  EXPECT_DOUBLE_EQ(h.maxValue(), 3.9);
  EXPECT_EQ(h.bucketCount(0), 1);
  EXPECT_EQ(h.bucketCount(1), 1);
  EXPECT_EQ(h.bucketCount(2), 2);

  const obs::MetricsSnapshot snap = obs::metricsSnapshot();
  bool found = false;
  for (const auto& hist : snap.histograms) {
    if (hist.name != "test.hist") continue;
    found = true;
    EXPECT_EQ(hist.count, 4);
    ASSERT_GE(hist.buckets.size(), 3u);
    EXPECT_EQ(hist.buckets[2], 2);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, RegistryReferencesSurviveReset) {
  obs::setMetricsEnabled(true);
  obs::Counter& c = obs::counter("test.stable");
  c.add(5);
  obs::metricsReset();
  EXPECT_EQ(c.value(), 0);
  c.add(2);
  EXPECT_EQ(obs::counter("test.stable").value(), 2);
  EXPECT_EQ(&obs::counter("test.stable"), &c);
}

// ---------------------------------------------------------------------------
// Pipeline integration + run report

TEST_F(ObsTest, RunReportRoundTripsWithConsistentCounters) {
  obs::setTracingEnabled(true);
  obs::setMetricsEnabled(true);

  PipelineConfig config = PipelineConfig::contest();
  config.setThreads(2);

  // The trace must contain every executed pipeline stage plus the per-window
  // MGL spans.
  obs::traceReset();
  obs::metricsReset();
  Design design = generate(tinySpec(71));
  const SegmentMap segments(design);
  PlacementState state(design);
  const PipelineStats stats = legalize(state, segments, config);
  ASSERT_EQ(stats.mgl.failed, 0);
#ifndef MCLG_TRACING_DISABLED
  {
    const JsonValue trace = parseOrDie(obs::renderChromeTrace());
    std::set<std::string> names;
    for (const auto& e : trace.at("traceEvents").array) {
      if (e.at("ph").string == "X") names.insert(e.at("name").string);
    }
    EXPECT_TRUE(names.count("pipeline/mgl"));
    EXPECT_TRUE(names.count("pipeline/mcf"));
    EXPECT_TRUE(names.count("mgl/window"));
  }
#endif  // MCLG_TRACING_DISABLED
  obs::setTracingEnabled(false);

  const auto score = evaluateScore(design, segments);
  obs::RunProvenance provenance;
  provenance.design = design.name;
  provenance.numCells = design.numCells();
  provenance.preset = "contest";
  provenance.threads = 2;
  const std::string reportText =
      obs::renderRunReport(provenance, stats, &score, /*includeMetrics=*/true);
  const JsonValue report = parseOrDie(reportText);

  EXPECT_EQ(report.at("schema_version").number, obs::kRunReportSchemaVersion);
  EXPECT_EQ(report.at("kind").string, "legalize");
  EXPECT_EQ(report.at("provenance").at("tool").string, "mclg");
  EXPECT_EQ(report.at("provenance").at("cells").number, design.numCells());
  EXPECT_EQ(report.at("stages").at("mgl").at("status").string, "ok");
  EXPECT_EQ(report.at("pipeline").at("mgl").at("placed").number,
            stats.mgl.placed);
  EXPECT_TRUE(report.at("quality").at("legal").boolean);

  // Counters in the report agree with PipelineStats: every successful
  // non-fallback placement went through exactly one committed insertion.
  const auto& counters = report.at("metrics").at("counters");
  ASSERT_TRUE(counters.has("mgl.insert.attempted"));
  ASSERT_TRUE(counters.has("mgl.insert.committed"));
  const double committed = counters.at("mgl.insert.committed").number;
  EXPECT_GE(committed, stats.mgl.placed - stats.mgl.fallbackPlaced);
  EXPECT_GT(counters.at("mgl.insert.attempted").number, 0.0);
  EXPECT_GT(counters.at("mcf.simplex.pivots").number, 0.0);
  EXPECT_GT(counters.at("mcfopt.cells_moved").number, 0.0);
  // Stage time gauges recorded by the pipeline driver.
  EXPECT_TRUE(report.at("metrics").at("gauges").has("stage.mgl.wall_seconds"));
}

TEST_F(ObsTest, DisabledMetricsRecordNothingDuringLegalize) {
  ASSERT_FALSE(obs::metricsEnabled());
  ASSERT_FALSE(obs::tracingEnabled());
  Design design = generate(tinySpec(72));
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats = legalize(state, segments, PipelineConfig::contest());
  ASSERT_EQ(stats.mgl.failed, 0);
  EXPECT_EQ(obs::traceEventCount(), 0u);
  const obs::MetricsSnapshot snap = obs::metricsSnapshot();
  EXPECT_EQ(snap.counterValue("mgl.insert.attempted"), 0);
  EXPECT_EQ(snap.counterValue("mgl.insert.committed"), 0);
  EXPECT_EQ(snap.counterValue("mcf.simplex.pivots"), 0);
}

TEST_F(ObsTest, BenchReportRoundTrips) {
  const std::string text = obs::renderBenchReport(
      "table1", {{"norm_score", 1.25}, {"norm_pin", 3.0}});
  const JsonValue v = parseOrDie(text);
  EXPECT_EQ(v.at("kind").string, "bench");
  EXPECT_EQ(v.at("schema_version").number, obs::kRunReportSchemaVersion);
  EXPECT_EQ(v.at("provenance").at("bench").string, "table1");
  EXPECT_DOUBLE_EQ(v.at("values").at("norm_score").number, 1.25);
}

// ---------------------------------------------------------------------------
// Structured logging

class LogCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    savedLevel_ = logLevel();
    savedFormat_ = logFormat();
    setLogLevel(LogLevel::Debug);
    setLogSink([this](const std::string& line) { lines_.push_back(line); });
  }
  void TearDown() override {
    setLogSink(nullptr);
    setLogFormat(savedFormat_);
    setLogLevel(savedLevel_);
  }
  std::vector<std::string> lines_;  // only touched under the emit mutex

 private:
  LogLevel savedLevel_ = LogLevel::Warn;
  LogFormat savedFormat_ = LogFormat::Text;
};

TEST_F(LogCaptureTest, JsonModeEmitsOneValidObjectPerLine) {
  setLogFormat(LogFormat::Json);
  MCLG_LOG_INFO() << "hello \"quoted\" and\nnewline";
  ASSERT_EQ(lines_.size(), 1u);
  const JsonValue v = parseOrDie(lines_[0]);
  EXPECT_EQ(v.at("level").string, "info");
  EXPECT_EQ(v.at("msg").string, "hello \"quoted\" and\nnewline");
  EXPECT_GT(v.at("ts").number, 0.0);
  // ts_ms is the same instant as an integer millisecond count, the sort key
  // for merged multi-process log streams.
  ASSERT_TRUE(v.has("ts_ms"));
  EXPECT_NEAR(v.at("ts_ms").number / 1000.0, v.at("ts").number, 1.0);
  EXPECT_TRUE(v.has("tid"));
}

TEST_F(LogCaptureTest, ConcurrentEmissionNeverInterleaves) {
  setLogFormat(LogFormat::Text);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        MCLG_LOG_INFO() << "thread " << t << " line " << i << " end";
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(lines_.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& line : lines_) {
    // A torn line would not match the full prefix+suffix shape.
    EXPECT_NE(line.find("[mclg INFO ] thread "), std::string::npos) << line;
    EXPECT_EQ(line.substr(line.size() - 4), " end") << line;
  }
}

}  // namespace
}  // namespace mclg
