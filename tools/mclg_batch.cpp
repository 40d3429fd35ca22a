// mclg_batch — multi-design throughput driver on the shared executor.
//
//   mclg_batch --manifest batch.txt [--jobs N] [--threads-per-design N]
//              [--preset contest|totaldisp] [--executor-threads N]
//              [--scores] [--report-out batch.json] [--shard i/N]
//              [--live-status] [--telemetry-ms MS] [--trace-out FILE]
//              [--process-isolation [--design-timeout SECS]
//               [--max-retries N] [--backoff-ms MS]]
//
// The manifest lists one design per line: `input.mclg [output.mclg]`
// (whitespace-separated, `#` comments). Designs legalize concurrently —
// up to --jobs in flight — on the process executor (or a private one of
// --executor-threads workers), each with --threads-per-design stage lanes.
// Per-design results are byte-identical to solo `mclg_cli legalize` runs
// at any thread count.
//
// --process-isolation runs each design in its own supervised worker
// process instead (flow/supervisor.hpp): a crash, OS kill, or timeout in
// one design cannot take down the batch, the victim is retried up to
// --max-retries times with exponential backoff, and its signal/status is
// recorded in the batch result. --shard i/N deterministically keeps every
// N-th manifest line starting at i, so N hosts can split one manifest
// with no coordination (the shard union is exactly the manifest).
//
// Live telemetry (docs/OBSERVABILITY.md "Live telemetry"): workers stream
// Heartbeat/MetricsDelta frames every --telemetry-ms, folded into a
// BatchLedger that drives the --live-status progress line, heartbeat-based
// stall detection, and the schema-v6 `batch` aggregate block of
// --report-out. --trace-out merges every worker's spans into one Perfetto
// timeline with a process lane per worker pid (in-process mode traces the
// single batch process instead).
//
// Exit status:
//   0  every design legalized (possibly after worker retries)
//   1  usage / IO error (bad flags, unreadable manifest or outputs)
//   3  at least one design failed, crashed past retries, or is infeasible
//   4  structured parse error in the manifest or an input design
//
// Internal: `mclg_batch --worker ...` is the supervisor's fork/exec target
// (see supervisorWorkerMain); not part of the public CLI surface.

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include <unistd.h>

#include "flow/batch_runner.hpp"
#include "flow/supervisor.hpp"
#include "obs/batch_ledger.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "util/executor/executor.hpp"
#include "util/timer.hpp"

namespace {

using namespace mclg;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitFailedDesigns = 3;
constexpr int kExitParseError = 4;

const char kHelp[] =
    "usage: mclg_batch --manifest batch.txt [options]\n"
    "\n"
    "  --manifest FILE        one design per line: input.mclg [output.mclg]\n"
    "  --jobs N               designs in flight at once (default: executor\n"
    "                         width; with --process-isolation: concurrent\n"
    "                         worker processes, default hardware threads)\n"
    "  --threads-per-design N stage-parallel lanes inside each design\n"
    "                         (default 1 — best aggregate throughput for\n"
    "                         small designs)\n"
    "  --preset NAME          contest (default) or totaldisp\n"
    "  --executor-threads N   run on a private executor of N workers\n"
    "                         (default: the shared process executor)\n"
    "  --scores               evaluate the contest score per design\n"
    "  --shard i/N            process only manifest lines j with j%%N == i\n"
    "                         (deterministic: the union over i=0..N-1 is\n"
    "                         exactly the manifest)\n"
    "  --report-out FILE      batch run report (JSON, kind \"bench\",\n"
    "                         executor.*/supervisor.* metrics and the\n"
    "                         schema-v6 batch.* aggregate block included)\n"
    "\n"
    "live telemetry (docs/OBSERVABILITY.md):\n"
    "  --live-status          single-line progress on stderr: done/running/\n"
    "                         retrying, slowest design + phase, cells/s,\n"
    "                         stalls detected\n"
    "  --telemetry-ms MS      worker sampler beat interval (default 100;\n"
    "                         0 disables heartbeats, metric deltas, and\n"
    "                         stall detection)\n"
    "  --trace-out FILE       merged Perfetto trace: one process lane per\n"
    "                         worker pid (chrome://tracing / ui.perfetto.dev)\n"
    "\n"
    "process isolation (crash-isolated fan-out, docs/ROBUSTNESS.md):\n"
    "  --process-isolation    run each design in its own supervised worker\n"
    "                         process; crashes/timeouts hit one design only\n"
    "  --design-timeout SECS  per-worker wall-clock budget (SIGTERM, then\n"
    "                         SIGKILL after a grace period; default: none)\n"
    "  --max-retries N        re-runs after a crash/timeout (default 2)\n"
    "  --backoff-ms MS        base retry backoff, doubled per retry\n"
    "                         (default 100)\n"
    "  --inject-fault SPEC    deterministic worker fault for stress tests:\n"
    "                         <design>:<segv|abort|kill|hang|degrade>:<n>\n"
    "                         fails attempts 0..n-1 of the named design\n";

std::optional<std::string> argValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

bool argFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Strict integer flag: absent -> fallback; non-numeric, trailing junk, or
/// a value below minValue (or beyond int range) -> usage error (false).
bool argInt(int argc, char** argv, const char* name, int fallback,
            int minValue, int* out) {
  const auto v = argValue(argc, argv, name);
  if (!v) {
    *out = fallback;
    return true;
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
      parsed < minValue || parsed > INT_MAX) {
    std::fprintf(stderr, "mclg_batch: invalid value '%s' for %s (want integer >= %d)\n",
                 v->c_str(), name, minValue);
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

/// Strict non-negative double flag, same contract as argInt.
bool argSeconds(int argc, char** argv, const char* name, double fallback,
                double* out) {
  const auto v = argValue(argc, argv, name);
  if (!v) {
    *out = fallback;
    return true;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE || parsed < 0.0 ||
      !(parsed <= 1e9)) {
    std::fprintf(stderr,
                 "mclg_batch: invalid value '%s' for %s (want seconds >= 0)\n",
                 v->c_str(), name);
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Supervisor fork/exec target: one design per process, frames over
  // --worker-fd. Dispatched before any other flag handling.
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return supervisorWorkerMain(argc, argv);
  }
  if (argFlag(argc, argv, "--help") || argFlag(argc, argv, "-h")) {
    std::fputs(kHelp, stdout);
    return kExitOk;
  }
  const auto manifestPath = argValue(argc, argv, "--manifest");
  if (!manifestPath) {
    std::fputs(kHelp, stderr);
    return kExitUsage;
  }

  // Validate every flag before touching the filesystem or forking, so a
  // bad flag is always a usage error (exit 1) and never a partial batch.
  const std::string presetName =
      argValue(argc, argv, "--preset").value_or("contest");
  BatchRunConfig config;
  if (presetName == "contest") {
    config.pipeline = PipelineConfig::contest();
  } else if (presetName == "totaldisp") {
    config.pipeline = PipelineConfig::totalDisplacement();
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", presetName.c_str());
    return kExitUsage;
  }
  int executorThreads = 0;
  int telemetryMs = 100;
  SupervisorConfig supervisor;
  if (!argInt(argc, argv, "--threads-per-design", 1, 1,
              &config.threadsPerDesign) ||
      !argInt(argc, argv, "--jobs", 0, 0, &config.maxInFlight) ||
      !argInt(argc, argv, "--executor-threads", 0, 0, &executorThreads) ||
      !argInt(argc, argv, "--telemetry-ms", telemetryMs, 0, &telemetryMs) ||
      !argInt(argc, argv, "--max-retries", supervisor.maxRetries, 0,
              &supervisor.maxRetries) ||
      !argInt(argc, argv, "--backoff-ms", supervisor.backoffMs, 0,
              &supervisor.backoffMs) ||
      !argSeconds(argc, argv, "--design-timeout", 0.0,
                  &supervisor.designTimeoutSeconds)) {
    return kExitUsage;
  }
  config.evaluateScores = argFlag(argc, argv, "--scores");
  const bool liveStatus = argFlag(argc, argv, "--live-status");
  const auto traceOut = argValue(argc, argv, "--trace-out");
  const bool processIsolation = argFlag(argc, argv, "--process-isolation");
  if (!processIsolation &&
      (argValue(argc, argv, "--design-timeout") ||
       argValue(argc, argv, "--max-retries") ||
       argValue(argc, argv, "--backoff-ms") ||
       argValue(argc, argv, "--inject-fault"))) {
    std::fprintf(stderr,
                 "mclg_batch: --design-timeout/--max-retries/--backoff-ms/"
                 "--inject-fault require --process-isolation\n");
    return kExitUsage;
  }
  ShardSpec shard;
  if (const auto shardText = argValue(argc, argv, "--shard")) {
    std::string shardError;
    if (!parseShardSpec(*shardText, &shard, &shardError)) {
      std::fprintf(stderr, "mclg_batch: %s\n", shardError.c_str());
      return kExitUsage;
    }
  }
  // Fault specs are strict too: a typo'd mode must be a usage error, not
  // a fault that silently never fires.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--inject-fault") != 0) continue;
    const std::string spec = argv[i + 1];
    const auto firstColon = spec.find(':');
    const auto lastColon = spec.rfind(':');
    bool valid = firstColon != std::string::npos && lastColon > firstColon &&
                 firstColon > 0;
    if (valid) {
      const std::string mode =
          spec.substr(firstColon + 1, lastColon - firstColon - 1);
      valid = mode == "segv" || mode == "abort" || mode == "kill" ||
              mode == "hang" || mode == "degrade";
      const std::string count = spec.substr(lastColon + 1);
      valid = valid && !count.empty() && count.size() <= 9;
      for (const char c : count) valid = valid && c >= '0' && c <= '9';
    }
    if (!valid) {
      std::fprintf(stderr,
                   "mclg_batch: invalid fault spec '%s' (want "
                   "<design>:<segv|abort|kill|hang|degrade>:<n>)\n",
                   spec.c_str());
      return kExitUsage;
    }
  }

  const auto reportOut = argValue(argc, argv, "--report-out");
  if (reportOut) {
    obs::setMetricsEnabled(true);
    obs::metricsReset();
  }

  std::vector<BatchManifestItem> items;
  std::string manifestError;
  if (!loadBatchManifest(*manifestPath, &items, &manifestError)) {
    std::fprintf(stderr, "%s\n", manifestError.c_str());
    return kExitParseError;
  }
  if (items.empty()) {
    std::fprintf(stderr, "manifest '%s' lists no designs\n",
                 manifestPath->c_str());
    return kExitUsage;
  }
  const std::size_t manifestTotal = items.size();
  items = shardManifest(items, shard);
  if (items.empty()) {
    std::printf("shard %d/%d of %zu designs is empty; nothing to do\n",
                shard.index, shard.count, manifestTotal);
    return kExitOk;
  }

  // Live telemetry fold shared by both modes: the supervisor feeds worker
  // frames into it, the in-process runner feeds design events directly.
  obs::BatchLedger ledger(static_cast<int>(items.size()));
  obs::TraceMerger traceMerger;
  const auto statusLine = [](const std::string& line) {
    std::fprintf(stderr, "\r\33[2K%s", line.c_str());
    std::fflush(stderr);
  };
  const auto steadySeconds = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };

  Timer timer;
  std::vector<BatchDesignResult> results;
  if (processIsolation) {
    supervisor.workerCommand = {selfExecutablePath(argv[0]), "--worker"};
    supervisor.maxConcurrent = config.maxInFlight;
    supervisor.preset = presetName;
    supervisor.threadsPerDesign = config.threadsPerDesign;
    supervisor.evaluateScores = config.evaluateScores;
    supervisor.telemetrySampleMs = telemetryMs;
    supervisor.ledger = &ledger;
    if (traceOut) {
      supervisor.streamTrace = true;
      supervisor.traceMerger = &traceMerger;
    }
    if (liveStatus) supervisor.onStatusLine = statusLine;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--inject-fault") == 0) {
        supervisor.extraWorkerArgs.push_back("--worker-fault");
        supervisor.extraWorkerArgs.emplace_back(argv[i + 1]);
      }
    }
    results = runSupervisedManifest(items, supervisor);
  } else {
    std::unique_ptr<Executor> privateExecutor;
    if (executorThreads > 0) {
      privateExecutor = std::make_unique<Executor>(executorThreads);
      config.executor = ExecutorRef(privateExecutor.get());
    }
    config.ledger = &ledger;
    if (liveStatus) config.onStatusLine = statusLine;
    if (traceOut) {
      obs::setTracingEnabled(true);
      obs::traceReset();
    }
    // Periodic executor gauge sampling (queue depth, parked workers) —
    // the in-process analog of the worker-side sampler.
    obs::MetricsSampler sampler;
    if (telemetryMs > 0 && (reportOut || liveStatus)) {
      obs::SamplerConfig samplerConfig;
      samplerConfig.intervalMs = telemetryMs;
      Executor* const target = privateExecutor.get();
      samplerConfig.preSample = [target] {
        Executor* executor = target ? target : Executor::globalIfCreated();
        if (executor != nullptr) executor->sampleGauges();
      };
      samplerConfig.emit = [](const obs::TelemetrySample&) {};
      sampler.start(std::move(samplerConfig));
    }
    results = runBatchManifest(items, config);
    sampler.stop();
    if (liveStatus) statusLine(ledger.renderStatusLine(steadySeconds()));
    if (traceOut) {
      const int pid = static_cast<int>(::getpid());
      traceMerger.addWorker(pid, "mclg_batch");
      traceMerger.addSpans(pid, obs::traceSnapshot());
    }
  }
  const double seconds = timer.seconds();
  if (liveStatus) std::fputc('\n', stderr);

  int okCount = 0;
  for (const auto& result : results) {
    if (result.ok) {
      ++okCount;
      if (result.attempts > 1) {
        std::printf("%-24s ok    %7.3fs  hash %016llx  (%d attempts)\n",
                    result.name.c_str(), result.seconds,
                    static_cast<unsigned long long>(result.placementHash),
                    result.attempts);
      } else {
        std::printf("%-24s ok    %7.3fs  hash %016llx\n", result.name.c_str(),
                    result.seconds,
                    static_cast<unsigned long long>(result.placementHash));
      }
    } else {
      std::printf("%-24s FAIL  [%s] %s\n", result.name.c_str(),
                  workerStatusName(result.status), result.error.c_str());
    }
  }
  const int total = static_cast<int>(results.size());
  const double throughput = seconds > 0.0 ? total / seconds : 0.0;
  std::string shardNote;
  if (shard.count > 1) {
    shardNote = " [shard " + std::to_string(shard.index) + "/" +
                std::to_string(shard.count) + "]";
  }
  std::printf("%d/%d designs legalized in %.3fs (%.2f designs/s)%s\n", okCount,
              total, seconds, throughput, shardNote.c_str());

  if (reportOut) {
    std::vector<std::pair<std::string, double>> values;
    values.emplace_back("designs", static_cast<double>(total));
    values.emplace_back("designs_ok", static_cast<double>(okCount));
    values.emplace_back("batch_seconds", seconds);
    values.emplace_back("designs_per_sec", throughput);
    values.emplace_back("jobs", static_cast<double>(config.maxInFlight));
    values.emplace_back("threads_per_design",
                        static_cast<double>(config.threadsPerDesign));
    values.emplace_back("process_isolation", processIsolation ? 1.0 : 0.0);
    values.emplace_back("shard_index", static_cast<double>(shard.index));
    values.emplace_back("shard_count", static_cast<double>(shard.count));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string prefix = "design." + std::to_string(i) + ".";
      values.emplace_back(prefix + "hash_lo",
                          static_cast<double>(results[i].placementHash &
                                              0xffffffffULL));
      values.emplace_back(prefix + "hash_hi",
                          static_cast<double>(results[i].placementHash >> 32));
      values.emplace_back(prefix + "status",
                          static_cast<double>(static_cast<int>(
                              results[i].status)));
      if (processIsolation) {
        values.emplace_back(prefix + "attempts",
                            static_cast<double>(results[i].attempts));
      }
      if (config.evaluateScores) {
        values.emplace_back(prefix + "score", results[i].score);
      }
    }
    if (!obs::writeBatchReport(*reportOut, "mclg_batch", values, ledger)) {
      std::fprintf(stderr, "cannot write %s\n", reportOut->c_str());
      return kExitUsage;
    }
    std::printf("wrote %s\n", reportOut->c_str());
  }
  if (traceOut) {
    if (!traceMerger.write(*traceOut)) {
      std::fprintf(stderr, "cannot write %s\n", traceOut->c_str());
      return kExitUsage;
    }
    std::printf("wrote %s (%zu lanes, %zu spans)\n", traceOut->c_str(),
                traceMerger.workerLanes(), traceMerger.spanCount());
  }

  return okCount == total ? kExitOk : kExitFailedDesigns;
}
