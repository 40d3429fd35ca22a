// Traced driver for the perfbench per-layer split.
//
// It calls the library's public entry points the way the CLI and the serve
// daemon do, times each call from outside with a steady clock, and reads the
// counters the library already exposes (PipelineStats, MglStats, GuardReport,
// Executor::Stats and the obs metrics registry). Nothing inside src/ is
// timed by this program; run.py turns its JSON output into layer metrics.
//
//   perfbench_trace legalize --in design.mclg --out legal.mclg --threads N
//   perfbench_trace serve --design design.mclg --requests reqs.txt
//                         --threads N
//
// The request file has one request per line:
//   <commit|rollback> <cell> <gpX> <gpY> [<cell> <gpX> <gpY> ...]
// i.e. the EcoDelta's move ops followed by the verb that ends it.
// Half of the requests run with the obs registry off, as the daemon runs
// them; each request's "traced" field says which half it is in. Registry
// counters therefore cover the traced half only.
//
// Both modes print one JSON object on stdout and exit 0 when every call
// succeeded (1 otherwise, 2 on usage errors).

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "flow/serve/serve_session.hpp"
#include "legal/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parsers/simple_format.hpp"
#include "util/executor/executor.hpp"

namespace {

using namespace mclg;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

const char* flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

Executor::Stats executorStats() {
  const Executor* executor = Executor::globalIfCreated();
  return executor != nullptr ? executor->stats() : Executor::Stats{};
}

/// Executor activity since `before`, plus every registry counter and the
/// window-candidate histogram (count and sum, for the mean).
void writeCounters(obs::JsonWriter& w, const Executor::Stats& before) {
  const Executor::Stats after = executorStats();
  w.key("executor").beginObject();
  w.field("steals", after.steals - before.steals);
  w.field("parks", after.parks - before.parks);
  w.field("chunk_grabs", after.chunkGrabs - before.chunkGrabs);
  w.endObject();
  const obs::MetricsSnapshot snap = obs::metricsSnapshot();
  w.key("counters").beginObject();
  for (const auto& [name, value] : snap.counters) w.field(name, value);
  w.endObject();
  w.key("histograms").beginObject();
  for (const auto& hist : snap.histograms) {
    w.key(hist.name).beginArray();
    w.value(hist.count).value(hist.sum).endArray();
  }
  w.endObject();
}

void writeScore(obs::JsonWriter& w, const ScoreBreakdown& score) {
  w.field("legal", score.legality.legal());
  w.field("unplaced", score.legality.unplacedCells);
  w.field("score", score.score);
  w.field("avg_disp", score.displacement.average);
  w.field("max_disp", score.displacement.maximum);
}

int runLegalize(int argc, char** argv) {
  const char* in = flag(argc, argv, "--in");
  const char* out = flag(argc, argv, "--out");
  const char* threadsText = flag(argc, argv, "--threads");
  if (in == nullptr || out == nullptr) return 2;
  const int threads = threadsText != nullptr ? std::atoi(threadsText) : 1;

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  const Executor::Stats executorBefore = executorStats();
  std::map<std::string, double> spans;
  const Clock::time_point runStart = Clock::now();

  Clock::time_point t = Clock::now();
  ParseError error;
  auto design = loadDesign(in, &error);
  spans["load"] = since(t);
  if (!design) {
    std::fprintf(stderr, "perfbench_trace: parse error: %s\n",
                 error.str().c_str());
    return 1;
  }

  // The CLI's default configuration (tools/mclg_cli.cpp cmdLegalize).
  PipelineConfig config = PipelineConfig::contest();
  config.guard.enabled = true;
  config.setThreads(threads);

  t = Clock::now();
  SegmentMap segments(*design);
  spans["segment_map"] = since(t);
  t = Clock::now();
  PlacementState state(*design);
  spans["placement_state"] = since(t);

  const double cpuBefore = processCpuSeconds();
  t = Clock::now();
  const PipelineStats stats = legalize(state, segments, config);
  spans["legalize"] = since(t);
  const double cpuLegalize = processCpuSeconds() - cpuBefore;

  t = Clock::now();
  const ScoreBreakdown score = evaluateScore(*design, segments);
  spans["eval"] = since(t);

  t = Clock::now();
  const bool saved = saveDesign(*design, out);
  spans["save"] = since(t);
  spans["total"] = since(runStart);

  obs::JsonWriter w;
  w.beginObject();
  w.key("spans").beginObject();
  for (const auto& [name, seconds] : spans) w.field(name, seconds);
  w.endObject();
  w.key("stages").beginObject();
  w.field("mgl", stats.secondsMgl);
  w.field("maxdisp", stats.secondsMaxDisp);
  w.field("mcf", stats.secondsFixedRowOrder);
  w.field("other", stats.secondsRipup + stats.secondsRecovery);
  w.endObject();
  w.field("cpu_s", cpuLegalize);
  w.key("mgl").beginObject();
  w.field("placed", stats.mgl.placed);
  w.field("fallback", stats.mgl.fallbackPlaced);
  w.field("failed", stats.mgl.failed);
  w.field("window_expansions", stats.mgl.windowExpansions);
  w.endObject();
  w.key("guard").beginObject();
  w.field("degraded", stats.guard.degraded);
  w.field("failed", stats.guard.failed);
  w.field("infeasible", stats.guard.infeasibleCells);
  w.endObject();
  writeCounters(w, executorBefore);
  writeScore(w, score);
  w.field("hash", hex64(placementHash(*design)));
  w.field("saved", saved);
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  return saved && !stats.guard.failed ? 0 : 1;
}

struct Request {
  bool commit = true;
  EcoDeltaRequest delta;
};

bool readRequests(const char* path, std::vector<Request>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string verb;
    fields >> verb;
    if (verb != "commit" && verb != "rollback") return false;
    Request request;
    request.commit = verb == "commit";
    EcoOp op;
    while (fields >> op.cell >> op.gpX >> op.gpY) {
      op.kind = EcoOp::Kind::Move;
      request.delta.ops.push_back(op);
    }
    if (!fields.eof() || request.delta.ops.empty()) return false;
    out->push_back(std::move(request));
  }
  return true;
}

int runServe(int argc, char** argv) {
  const char* designPath = flag(argc, argv, "--design");
  const char* requestsPath = flag(argc, argv, "--requests");
  const char* threadsText = flag(argc, argv, "--threads");
  if (designPath == nullptr || requestsPath == nullptr) return 2;
  std::vector<Request> requests;
  if (!readRequests(requestsPath, &requests)) {
    std::fprintf(stderr, "perfbench_trace: bad request file %s\n",
                 requestsPath);
    return 2;
  }

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  std::map<std::string, double> spans;

  // The layers ServeSession::load runs internally, timed once from outside
  // on the same input: the parse and the two database builds.
  Clock::time_point t = Clock::now();
  ParseError error;
  auto parsed = loadDesign(designPath, &error);
  spans["load"] = since(t);
  if (!parsed) {
    std::fprintf(stderr, "perfbench_trace: parse error: %s\n",
                 error.str().c_str());
    return 1;
  }
  t = Clock::now();
  SegmentMap parsedSegments(*parsed);
  spans["segment_map"] = since(t);
  t = Clock::now();
  PlacementState parsedState(*parsed);
  spans["placement_state"] = since(t);

  std::ifstream designFile(designPath);
  std::ostringstream text;
  text << designFile.rdbuf();
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "perfbench";
  load.threads = threadsText != nullptr ? std::atoi(threadsText) : 1;
  load.designText = text.str();
  ServeSessionConfig sessionConfig;
  sessionConfig.threads = load.threads;
  ServeResponse loaded;
  t = Clock::now();
  auto session = ServeSession::load(load, sessionConfig, &loaded);
  spans["serve_load"] = since(t);
  if (!session) {
    std::fprintf(stderr, "perfbench_trace: load failed: %s\n",
                 loaded.error.c_str());
    return 1;
  }

  obs::metricsReset();
  const Executor::Stats executorBefore = executorStats();
  obs::JsonWriter w;
  w.beginObject();
  w.field("load_hash", hex64(loaded.hash));
  w.key("requests").beginArray();
  bool allOk = true;
  double loopSeconds = 0.0;
  const double cpuBefore = processCpuSeconds();
  std::uint64_t id = 2;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Traced and untraced requests alternate in pairs (on, on, off, off),
    // so both see the same host state and both get every other rollback
    // (every 10th request); their times give the tracing overhead.
    const bool traced = (i / 2) % 2 == 0;
    obs::setMetricsEnabled(traced);
    Request& request = requests[i];
    request.delta.id = id++;
    request.delta.tenant = load.tenant;
    t = Clock::now();
    const ServeResponse applied =
        session->applyDelta(request.delta, Deadline{});
    const double applySeconds = since(t);
    TenantRequest finish;
    finish.id = id++;
    finish.tenant = load.tenant;
    t = Clock::now();
    const ServeResponse finished =
        request.commit ? session->commit(finish) : session->rollback(finish);
    const double finishSeconds = since(t);
    loopSeconds += applySeconds + finishSeconds;
    allOk = allOk && serveStatusOk(applied.status) &&
            serveStatusOk(finished.status);
    w.beginObject();
    w.field("traced", traced);
    w.field("status", serveStatusName(applied.status));
    w.field("apply_s", applySeconds);
    w.field("finish_s", finishSeconds);
    w.field("hash", hex64(applied.hash));
    w.field("finish_hash", hex64(finished.hash));
    if (!applied.body.empty()) w.key("report").rawValue(applied.body);
    w.endObject();
  }
  w.endArray();
  obs::setMetricsEnabled(true);
  w.field("cpu_s", processCpuSeconds() - cpuBefore);
  w.field("loop_s", loopSeconds);
  writeCounters(w, executorBefore);

  // The per-request score evaluation applyDelta runs, timed on the final
  // committed design.
  QueryRequest query;
  query.tenant = load.tenant;
  query.key = "design";
  auto committed = readSimpleFormat(session->query(query).body);
  if (!committed) return 1;
  SegmentMap committedSegments(*committed);
  t = Clock::now();
  const ScoreBreakdown score = evaluateScore(*committed, committedSegments);
  spans["eval"] = since(t);
  writeScore(w, score);
  w.key("spans").beginObject();
  for (const auto& [name, seconds] : spans) w.field(name, seconds);
  w.endObject();
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  return allOk && score.legality.legal() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "legalize") == 0) {
    return runLegalize(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return runServe(argc, argv);
  }
  std::fprintf(stderr,
               "usage: perfbench_trace legalize --in X --out Y --threads N\n"
               "       perfbench_trace serve --design X --requests R "
               "--threads N\n");
  return 2;
}
