// Batch supervisor suite (`ctest -L supervisor`): the crash-isolated
// fan-out of flow/supervisor.{hpp,cpp} and its wire protocol. The binary
// is its own worker — main() dispatches `--worker` argv to
// supervisorWorkerMain before gtest sees it — so the tests fork/exec real
// worker processes and inject real signal deaths (`--worker-fault`,
// default-disposition SIGSEGV/SIGKILL, SIGTERM-ignoring hangs) to prove:
// one dying worker never takes down the batch, crashed/timed-out designs
// are retried with backoff, exhausted retries surface as per-design
// statuses, and survivors stay byte-identical to solo runs.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "eval/metrics.hpp"
#include "flow/batch_runner.hpp"
#include "flow/supervisor.hpp"
#include "flow/worker_protocol.hpp"
#include "gen/benchmark_gen.hpp"
#include "json_test_reader.hpp"
#include "legal/pipeline.hpp"
#include "obs/batch_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_merge.hpp"
#include "parsers/simple_format.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

GenSpec spec(std::uint64_t seed) {
  GenSpec s;
  s.cellsPerHeight = {350, 45, 15, 8};
  s.density = 0.6;
  s.numFences = 2;
  s.seed = seed;
  return s;
}

std::optional<std::string> readFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return std::nullopt;
  std::string bytes;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    bytes.append(buffer, got);
  }
  std::fclose(file);
  return bytes;
}

/// Generate `count` designs into `dir` and return their manifest items
/// (named d0, d1, ... with outputs under `dir`).
std::vector<BatchManifestItem> makeManifest(const std::string& dir, int count,
                                            std::uint64_t seedBase) {
  std::vector<BatchManifestItem> items;
  for (int d = 0; d < count; ++d) {
    Design design = generate(spec(seedBase + static_cast<std::uint64_t>(d)));
    const std::string name = "d" + std::to_string(d);
    const std::string input = dir + "/" + name + ".mclg";
    EXPECT_TRUE(saveDesign(design, input));
    items.push_back({name, input, dir + "/" + name + ".legal.mclg"});
  }
  return items;
}

BatchRunConfig soloConfig() {
  BatchRunConfig config;
  config.pipeline = PipelineConfig::contest();
  config.pipeline.setThreads(1);
  return config;
}

// ---- Shard specs -----------------------------------------------------------

TEST(ShardSpec, ParsesValidSpecs) {
  ShardSpec spec;
  std::string error;
  ASSERT_TRUE(parseShardSpec("0/1", &spec, &error)) << error;
  EXPECT_EQ(spec.index, 0);
  EXPECT_EQ(spec.count, 1);
  ASSERT_TRUE(parseShardSpec("2/5", &spec, &error)) << error;
  EXPECT_EQ(spec.index, 2);
  EXPECT_EQ(spec.count, 5);
  ASSERT_TRUE(parseShardSpec("127/128", &spec, &error)) << error;
  EXPECT_EQ(spec.index, 127);
  EXPECT_EQ(spec.count, 128);
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  ShardSpec spec;
  std::string error;
  for (const char* bad :
       {"", "1", "/", "1/", "/3", "a/b", "-1/3", "1/-3", "3/3", "4/3", "1/0",
        "1x/3", "1/3x", " 1/3", "1/3 ", "1//3", "1/3/5", "+1/3",
        "9999999999/9999999999"}) {
    EXPECT_FALSE(parseShardSpec(bad, &spec, &error)) << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ShardSpec, UnionOfShardsIsExactlyTheManifest) {
  std::vector<BatchManifestItem> items;
  for (int i = 0; i < 10; ++i) {
    const std::string name = "item" + std::to_string(i);
    items.push_back({name, name + ".mclg", ""});
  }
  for (const int count : {1, 3, 4, 10, 13}) {
    // Round-robin: shard i holds items j with j % count == i, order kept.
    std::vector<std::string> merged(items.size());
    std::size_t total = 0;
    for (int index = 0; index < count; ++index) {
      const auto shard = shardManifest(items, {index, count});
      for (std::size_t k = 0; k < shard.size(); ++k) {
        const std::size_t j =
            static_cast<std::size_t>(index) + k * static_cast<std::size_t>(count);
        ASSERT_LT(j, items.size()) << "count " << count;
        EXPECT_TRUE(merged[j].empty()) << "overlap at " << j;
        merged[j] = shard[k].name;
      }
      total += shard.size();
    }
    EXPECT_EQ(total, items.size()) << "count " << count;
    for (std::size_t j = 0; j < items.size(); ++j) {
      EXPECT_EQ(merged[j], items[j].name) << "count " << count;
    }
  }
  // Degenerate single shard is the identity.
  const auto whole = shardManifest(items, {0, 1});
  ASSERT_EQ(whole.size(), items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    EXPECT_EQ(whole[j].name, items[j].name);
  }
}

// ---- Wire protocol ---------------------------------------------------------

TEST(WorkerProtocol, ResultRoundTrip) {
  WorkerResult in;
  in.status = WorkerStatus::GuardDegraded;
  in.seconds = 1.25;
  in.placementHash = 0xdeadbeefcafef00dull;
  in.score = 12345.5;
  in.numCells = 421;
  in.error = "stage skipped\nafter rollback";  // newline must be sanitized
  WorkerResult out;
  ASSERT_TRUE(parseWorkerResult(serializeWorkerResult(in), &out));
  EXPECT_EQ(out.status, in.status);
  EXPECT_DOUBLE_EQ(out.seconds, in.seconds);
  EXPECT_EQ(out.placementHash, in.placementHash);
  EXPECT_DOUBLE_EQ(out.score, in.score);
  EXPECT_EQ(out.numCells, in.numCells);
  EXPECT_EQ(out.error.find('\n'), std::string::npos);
  EXPECT_NE(out.error.find("stage skipped"), std::string::npos);

  EXPECT_FALSE(parseWorkerResult("status=not-a-status\n", &out));
  EXPECT_FALSE(parseWorkerResult("no equals sign", &out));
}

TEST(WorkerProtocol, ExitCodeStatusMappingRoundTrips) {
  for (const WorkerStatus status :
       {WorkerStatus::Ok, WorkerStatus::GuardDegraded, WorkerStatus::Infeasible,
        WorkerStatus::ParseError, WorkerStatus::Exception,
        WorkerStatus::IoError}) {
    EXPECT_EQ(workerStatusFromExit(workerStatusToExit(status)), status)
        << workerStatusName(status);
  }
  // Guard contract values are load-bearing (docs/ROBUSTNESS.md).
  EXPECT_EQ(workerStatusToExit(WorkerStatus::Ok), 0);
  EXPECT_EQ(workerStatusToExit(WorkerStatus::IoError), 1);
  EXPECT_EQ(workerStatusToExit(WorkerStatus::GuardDegraded), 2);
  EXPECT_EQ(workerStatusToExit(WorkerStatus::Infeasible), 3);
  EXPECT_EQ(workerStatusToExit(WorkerStatus::ParseError), 4);
  EXPECT_EQ(workerStatusFromExit(77), WorkerStatus::Exception);
  // Supervisor-observed outcomes are usable and retryable exactly as doc'd.
  EXPECT_TRUE(workerStatusOk(WorkerStatus::Ok));
  EXPECT_TRUE(workerStatusOk(WorkerStatus::GuardDegraded));
  EXPECT_FALSE(workerStatusOk(WorkerStatus::Crashed));
  EXPECT_TRUE(workerStatusRetryable(WorkerStatus::Crashed));
  EXPECT_TRUE(workerStatusRetryable(WorkerStatus::Timeout));
  EXPECT_TRUE(workerStatusRetryable(WorkerStatus::Exception));
  EXPECT_FALSE(workerStatusRetryable(WorkerStatus::ParseError));
  EXPECT_FALSE(workerStatusRetryable(WorkerStatus::Infeasible));
  EXPECT_FALSE(workerStatusRetryable(WorkerStatus::IoError));
}

TEST(WorkerProtocol, FramesSurviveArbitraryFragmentation) {
  // Write two real frames through a pipe, then feed the raw bytes to a
  // FrameReader one byte at a time — the worst fragmentation read() can
  // produce.
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  WorkerResult wire;
  wire.status = WorkerStatus::Ok;
  wire.placementHash = 42;
  ASSERT_TRUE(writeFrame(fds[1], FrameType::Result,
                         serializeWorkerResult(wire)));
  ASSERT_TRUE(writeFrame(fds[1], FrameType::Report, "{\"k\":\"v\"}"));
  close(fds[1]);
  std::string bytes;
  char buffer[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buffer, sizeof buffer)) > 0) {
    bytes.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);

  FrameReader reader;
  std::vector<FrameReader::Frame> frames;
  for (const char byte : bytes) {
    reader.feed(&byte, 1);
    for (auto& frame : reader.take()) frames.push_back(std::move(frame));
  }
  EXPECT_FALSE(reader.corrupted());
  EXPECT_EQ(reader.pendingBytes(), 0u);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::Result);
  WorkerResult parsed;
  ASSERT_TRUE(parseWorkerResult(frames[0].payload, &parsed));
  EXPECT_EQ(parsed.placementHash, 42u);
  EXPECT_EQ(frames[1].type, FrameType::Report);
  EXPECT_EQ(frames[1].payload, "{\"k\":\"v\"}");
}

TEST(WorkerProtocol, CorruptionIsSticky) {
  // Bad magic: no frames, corrupted() latches, later good bytes ignored.
  FrameReader reader;
  const char junk[] = "XXXXYYYYZZZZ----";
  reader.feed(junk, sizeof junk - 1);
  EXPECT_TRUE(reader.corrupted());
  EXPECT_TRUE(reader.take().empty());
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(writeFrame(fds[1], FrameType::Report, "ok"));
  close(fds[1]);
  char buffer[256];
  const ssize_t got = read(fds[0], buffer, sizeof buffer);
  close(fds[0]);
  ASSERT_GT(got, 0);
  reader.feed(buffer, static_cast<std::size_t>(got));
  EXPECT_TRUE(reader.corrupted());
  EXPECT_TRUE(reader.take().empty());

  // Oversized length field is corruption, not an allocation attempt.
  FrameReader oversize;
  std::string header;
  const auto putU32 = [&header](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  putU32(kFrameMagic);
  putU32(1);
  putU32(kMaxFramePayload + 1);
  oversize.feed(header.data(), header.size());
  EXPECT_TRUE(oversize.corrupted());
}

// ---- Worker-body status vocabulary ------------------------------------------

TEST(BatchStatus, InProcessRunnerReportsTheSharedVocabulary) {
  const std::string dir = testing::uniqueTestDir();
  Design design = generate(spec(910));
  ASSERT_TRUE(saveDesign(design, dir + "/parity.mclg"));

  // Ok: clean run, usable placement.
  auto result = runBatchItem(
      {"parity", dir + "/parity.mclg", dir + "/parity.legal.mclg"},
      soloConfig());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, WorkerStatus::Ok);
  EXPECT_EQ(result.attempts, 0);  // attempts are the supervisor's to count

  // ParseError: unreadable input is a deterministic structured failure.
  result = runBatchItem({"missing", dir + "/does_not_exist.mclg", ""},
                        soloConfig());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.status, WorkerStatus::ParseError);
  EXPECT_FALSE(result.error.empty());

  // IoError: legalized fine but the output path is unwritable.
  result = runBatchItem({"parity", dir + "/parity.mclg",
                         dir + "/no_such_dir/parity.legal.mclg"},
                        soloConfig());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.status, WorkerStatus::IoError);

  // GuardDegraded: a stage that fails every guarded attempt is skipped
  // after rollback — a usable placement, flagged degraded (exit 2 in the
  // process vocabulary).
  BatchRunConfig degraded = soloConfig();
  degraded.pipeline.guard.enabled = true;
  degraded.pipeline.guard.maxAttempts = 2;
  degraded.pipeline.guard.faults.add(PipelineStage::MaxDisp,
                                     FaultKind::StageThrow, 0);
  degraded.pipeline.guard.faults.add(PipelineStage::MaxDisp,
                                     FaultKind::StageThrow, 1);
  result = runBatchItem({"parity", dir + "/parity.mclg", ""}, degraded);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, WorkerStatus::GuardDegraded);
}

// ---- Supervised fan-out ----------------------------------------------------

SupervisorConfig fastSupervisor() {
  SupervisorConfig config;
  config.maxConcurrent = 3;
  config.backoffMs = 1;  // keep retry tests fast
  return config;
}

TEST(Supervisor, MatchesSoloRunsByteForByte) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 3, 920);

  // Solo reference: the worker body, run in this process on the same
  // pipeline config.
  std::vector<std::uint64_t> soloHashes;
  std::vector<std::string> soloBytes;
  for (const auto& item : items) {
    BatchManifestItem solo = item;
    solo.outputPath = item.outputPath + ".solo";
    const auto result = runBatchItem(solo, soloConfig());
    ASSERT_TRUE(result.ok) << result.error;
    soloHashes.push_back(result.placementHash);
    const auto bytes = readFileBytes(solo.outputPath);
    ASSERT_TRUE(bytes.has_value());
    soloBytes.push_back(*bytes);
  }

  const auto results = runSupervisedManifest(items, fastSupervisor());
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t d = 0; d < items.size(); ++d) {
    EXPECT_TRUE(results[d].ok) << results[d].error;
    EXPECT_EQ(results[d].status, WorkerStatus::Ok);
    EXPECT_EQ(results[d].attempts, 1);
    EXPECT_EQ(results[d].lastSignal, 0);
    EXPECT_EQ(results[d].placementHash, soloHashes[d]) << items[d].name;
    EXPECT_GT(results[d].numCells, 0);
    // The worker streamed its versioned run report back over the pipe.
    EXPECT_NE(results[d].reportJson.find("schema_version"), std::string::npos);
    const auto bytes = readFileBytes(items[d].outputPath);
    ASSERT_TRUE(bytes.has_value()) << items[d].outputPath;
    EXPECT_EQ(*bytes, soloBytes[d]) << items[d].name << " output differs";
  }
}

TEST(Supervisor, MissingInputIsAParseErrorAndNeighborsStillSave) {
  // A design whose input does not exist fails deterministically: it comes
  // back as ParseError after one attempt (never retried), while its
  // manifest neighbor legalizes and saves exactly the solo placement.
  const std::string dir = testing::uniqueTestDir();
  Design good = generate(spec(700));
  ASSERT_TRUE(saveDesign(good, dir + "/good.mclg"));
  const BatchDesignResult solo =
      runBatchItem({"good", dir + "/good.mclg", ""}, soloConfig());
  ASSERT_TRUE(solo.ok) << solo.error;

  const std::vector<BatchManifestItem> items = {
      {"good", dir + "/good.mclg", dir + "/good_legal.mclg"},
      {"missing", dir + "/does_not_exist.mclg", ""}};
  const auto results = runSupervisedManifest(items, fastSupervisor());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].status, WorkerStatus::Ok);
  EXPECT_EQ(results[0].placementHash, solo.placementHash);
  std::optional<Design> saved = loadDesign(dir + "/good_legal.mclg");
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(placementHash(*saved), results[0].placementHash);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].status, WorkerStatus::ParseError);
  EXPECT_EQ(results[1].attempts, 1);
  EXPECT_FALSE(results[1].error.empty());
}

TEST(Supervisor, CrashedWorkerIsRetriedAndNeighborsSurvive) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 3, 930);
  std::vector<std::string> soloBytes;
  for (const auto& item : items) {
    BatchManifestItem solo = item;
    solo.outputPath = item.outputPath + ".solo";
    ASSERT_TRUE(runBatchItem(solo, soloConfig()).ok);
    soloBytes.push_back(*readFileBytes(solo.outputPath));
  }

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  SupervisorConfig config = fastSupervisor();
  config.maxRetries = 2;
  // d1's first attempt dies of a genuine SIGSEGV (default disposition —
  // sanitizer handlers bypassed); the retry runs clean.
  config.extraWorkerArgs = {"--worker-fault", "d1:segv:1"};
  const auto results = runSupervisedManifest(items, config);
  obs::setMetricsEnabled(false);

  ASSERT_EQ(results.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(results[d].ok) << items[d].name << ": " << results[d].error;
    EXPECT_EQ(results[d].status, WorkerStatus::Ok);
    const auto bytes = readFileBytes(items[d].outputPath);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(*bytes, soloBytes[d]) << items[d].name;
  }
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(results[1].attempts, 2);  // crash + clean retry
  EXPECT_EQ(results[2].attempts, 1);

  const auto snapshot = obs::metricsSnapshot();
  EXPECT_EQ(snapshot.counterValue("supervisor.spawns"), 4);
  EXPECT_EQ(snapshot.counterValue("supervisor.restarts"), 1);
  EXPECT_EQ(snapshot.counterValue("supervisor.retries"), 1);
  EXPECT_EQ(snapshot.counterValue("supervisor.crashes"), 1);
  EXPECT_EQ(snapshot.counterValue("supervisor.crash.signal." +
                                  std::to_string(SIGSEGV)),
            1);
  EXPECT_EQ(snapshot.counterValue("supervisor.exhausted"), 0);
}

TEST(Supervisor, ExhaustedRetriesRecordTheCrash) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 3, 940);

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  SupervisorConfig config = fastSupervisor();
  config.maxRetries = 1;
  // Every attempt of d1 dies of SIGKILL — as if the OOM killer kept
  // shooting it. The batch must still finish its neighbors.
  config.extraWorkerArgs = {"--worker-fault", "d1:kill:99"};
  const auto results = runSupervisedManifest(items, config);
  obs::setMetricsEnabled(false);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[2].ok) << results[2].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].status, WorkerStatus::Crashed);
  EXPECT_EQ(results[1].lastSignal, SIGKILL);
  EXPECT_EQ(results[1].attempts, 2);  // initial + maxRetries
  EXPECT_FALSE(results[1].error.empty());

  const auto snapshot = obs::metricsSnapshot();
  EXPECT_EQ(snapshot.counterValue("supervisor.crashes"), 2);
  EXPECT_EQ(snapshot.counterValue("supervisor.exhausted"), 1);
}

TEST(Supervisor, TimeoutEscalatesToSigkillThenRetrySucceeds) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 2, 950);

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  SupervisorConfig config = fastSupervisor();
  config.designTimeoutSeconds = 0.5;
  config.killGraceSeconds = 0.5;
  config.maxRetries = 1;
  // d0's first attempt ignores SIGTERM and sleeps forever, forcing the
  // supervisor through the full SIGTERM -> grace -> SIGKILL escalation.
  config.extraWorkerArgs = {"--worker-fault", "d0:hang:1"};
  const auto results = runSupervisedManifest(items, config);
  obs::setMetricsEnabled(false);

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[1].attempts, 1);

  const auto snapshot = obs::metricsSnapshot();
  EXPECT_EQ(snapshot.counterValue("supervisor.timeouts"), 1);
  EXPECT_EQ(snapshot.counterValue("supervisor.kills"), 1);
}

TEST(Supervisor, TimeoutPastRetriesSurfacesAsStatus) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 1, 960);

  SupervisorConfig config = fastSupervisor();
  config.designTimeoutSeconds = 0.3;
  config.killGraceSeconds = 0.3;
  config.maxRetries = 0;
  config.extraWorkerArgs = {"--worker-fault", "d0:hang:99"};
  const auto results = runSupervisedManifest(items, config);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].status, WorkerStatus::Timeout);
  EXPECT_EQ(results[0].attempts, 1);
}

TEST(Supervisor, DegradedWorkerMapsToGuardDegraded) {
  // The degrade fault arms the guard's FaultPlan inside the worker: the
  // run completes via skip-after-rollback, exits 2, and the supervisor
  // reports GuardDegraded — a usable result, not a retry.
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 1, 970);

  SupervisorConfig config = fastSupervisor();
  config.extraWorkerArgs = {"--worker-fault", "d0:degrade:1"};
  const auto results = runSupervisedManifest(items, config);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].status, WorkerStatus::GuardDegraded);
  EXPECT_EQ(results[0].attempts, 1);  // degradation is not retryable
}

// ---- Live telemetry (schema v6) --------------------------------------------

TEST(Supervisor, TelemetryFoldMatchesPerDesignReportsAndTraceHasAllLanes) {
  const std::string dir = testing::uniqueTestDir();
  const int kDesigns = 8;
  const auto items = makeManifest(dir, kDesigns, 990);

  obs::BatchLedger ledger(kDesigns);
  obs::TraceMerger merger;
  std::vector<std::string> statusLines;
  SupervisorConfig config = fastSupervisor();
  config.telemetrySampleMs = 10;
  config.streamTrace = true;
  config.ledger = &ledger;
  config.traceMerger = &merger;
  config.statusIntervalMs = 50;
  config.onStatusLine = [&statusLines](const std::string& line) {
    statusLines.push_back(line);
  };
  const auto results = runSupervisedManifest(items, config);

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kDesigns));
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    EXPECT_FALSE(result.reportJson.empty()) << result.name;
  }
  EXPECT_EQ(ledger.done(), kDesigns);
  EXPECT_GE(ledger.heartbeats(), kDesigns);  // >= the final beat per worker
  EXPECT_EQ(ledger.stallsDetected(), 0);

  // The ledger's counter fold must equal the sum of the per-design run
  // reports exactly: every worker's sampler flushes a final delta before
  // the Report frame is rendered, so the streamed deltas and the report
  // snapshot describe the same registry state.
  std::map<std::string, long long> summed;
  for (const auto& result : results) {
    const testjson::JsonValue report = testjson::parseOrDie(result.reportJson);
    EXPECT_EQ(report.at("schema_version").number, obs::kRunReportSchemaVersion)
        << result.name;
    for (const auto& [name, value] :
         report.at("metrics").at("counters").object) {
      if (value.number != 0.0) summed[name] += static_cast<long long>(value.number);
    }
  }
  EXPECT_FALSE(summed.empty());
  for (const auto& [name, value] : summed) {
    EXPECT_EQ(ledger.folded().counterValue(name), value) << name;
  }
  for (const auto& [name, value] : ledger.folded().counters) {
    EXPECT_EQ(summed.count(name), 1u) << "folded counter not in reports: "
                                      << name;
  }

  // One merged Perfetto document, one labeled process lane per worker pid.
  EXPECT_EQ(merger.workerLanes(), static_cast<std::size_t>(kDesigns));
  EXPECT_GT(merger.spanCount(), 0u);
  const testjson::JsonValue trace = testjson::parseOrDie(merger.render());
  std::map<double, std::string> lanes;
  for (const testjson::JsonValue& event : trace.at("traceEvents").array) {
    if (event.at("name").string == "process_name") {
      lanes[event.at("pid").number] = event.at("args").at("name").string;
    }
  }
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(kDesigns));
  std::set<std::string> laneNames;
  for (const auto& [pid, label] : lanes) laneNames.insert(label);
  for (int d = 0; d < kDesigns; ++d) {
    EXPECT_EQ(laneNames.count("d" + std::to_string(d)), 1u) << d;
  }

  // The v6 batch document carries the same aggregates.
  const testjson::JsonValue batchReport =
      testjson::parseOrDie(obs::renderBatchReport("mclg_batch", {}, ledger));
  EXPECT_EQ(batchReport.at("schema_version").number,
            obs::kRunReportSchemaVersion);
  const testjson::JsonValue& batch = batchReport.at("batch");
  EXPECT_EQ(batch.at("designs_total").number, static_cast<double>(kDesigns));
  EXPECT_EQ(batch.at("designs_ok").number, static_cast<double>(kDesigns));
  EXPECT_EQ(batch.at("heartbeats").number,
            static_cast<double>(ledger.heartbeats()));

  // --live-status progress: at least the final post-drain line, which must
  // show the batch fully done.
  ASSERT_FALSE(statusLines.empty());
  EXPECT_NE(statusLines.back().find("8/8 done"), std::string::npos)
      << statusLines.back();
}

TEST(Supervisor, MissingHeartbeatsFlagAHungWorkerBeforeTheTimeout) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 1, 995);

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  obs::BatchLedger ledger(1);
  SupervisorConfig config = fastSupervisor();
  // The hang fault fires before the worker's sampler starts, so the worker
  // is silent from spawn: stall detection (0.3 s without a beat) must flag
  // it as hung well before the wall-clock timeout (1.5 s) escalates.
  config.telemetrySampleMs = 20;
  config.stallThresholdSeconds = 0.3;
  config.designTimeoutSeconds = 1.5;
  config.killGraceSeconds = 0.3;
  config.maxRetries = 0;
  config.ledger = &ledger;
  config.extraWorkerArgs = {"--worker-fault", "d0:hang:99"};
  const auto results = runSupervisedManifest(items, config);
  const auto snapshot = obs::metricsSnapshot();
  obs::setMetricsEnabled(false);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].status, WorkerStatus::Timeout);
  EXPECT_GE(ledger.stallsDetected(), 1);
  EXPECT_GE(snapshot.counterValue("supervisor.stalls_detected"), 1);
}

// A worker argv the worker rejects — an unknown flag, a fault spec outside
// the grammar — is a usage exit with no Result frame: a non-retried
// io-error that says how the worker ended.
TEST(Supervisor, RejectedWorkerArgvIsAnIoErrorWithItsExitCode) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 1, 985);
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--worker-bogus"},
        std::vector<std::string>{"--worker-fault", "d0:segv:0"}}) {
    SupervisorConfig config = fastSupervisor();
    config.extraWorkerArgs = extra;
    const auto results = runSupervisedManifest(items, config);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, WorkerStatus::IoError) << extra[0];
    EXPECT_EQ(results[0].attempts, 1) << extra[0];
    EXPECT_EQ(results[0].error, "worker exited 1 without a result frame")
        << extra[0];
  }
}

TEST(Supervisor, SpawnFailureIsAPerDesignStatus) {
  const std::string dir = testing::uniqueTestDir();
  const auto items = makeManifest(dir, 1, 980);

  SupervisorConfig config = fastSupervisor();
  config.maxRetries = 0;
  config.workerCommand = {dir + "/no_such_binary", "--worker"};
  const auto results = runSupervisedManifest(items, config);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  // exec failure after fork surfaces through the exit-code channel; a
  // failed fork itself would be SpawnFailed. Either way: a status, not a
  // crash or an exception.
  EXPECT_TRUE(results[0].status == WorkerStatus::SpawnFailed ||
              results[0].status == WorkerStatus::Exception)
      << workerStatusName(results[0].status);
}

}  // namespace
}  // namespace mclg

// The binary is its own supervised worker: the supervisor spawns
// `<this-binary> --worker ...` (SupervisorConfig::workerCommand default),
// which must never reach gtest.
int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return mclg::supervisorWorkerMain(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
