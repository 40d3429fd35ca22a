// mclg_batch — multi-design driver: one supervised worker process per
// design.
//
//   mclg_batch --manifest batch.txt [--jobs N] [--threads-per-design N]
//              [--preset contest|totaldisp] [--scores]
//              [--report-out batch.json] [--shard i/N]
//              [--live-status] [--telemetry-ms MS] [--trace-out FILE]
//              [--design-timeout SECS] [--max-retries N] [--backoff-ms MS]
//
// The manifest lists one design per line: `input.mclg [output.mclg]`
// (whitespace-separated, `#` comments). Each design runs in its own worker
// process (flow/supervisor.hpp), up to --jobs at once, each with
// --threads-per-design stage lanes: a crash, OS kill, or timeout in one
// design cannot take down the batch, the victim is retried up to
// --max-retries times with exponential backoff, and its signal/status is
// recorded in the batch result. Per-design results are byte-identical to
// solo `mclg_cli legalize` runs at any thread count. --shard i/N
// deterministically keeps every N-th manifest line starting at i, so N
// hosts can split one manifest with no coordination (the shard union is
// exactly the manifest).
//
// Live telemetry (docs/OBSERVABILITY.md "Live telemetry"): workers stream
// Heartbeat/MetricsDelta frames every --telemetry-ms, folded into a
// BatchLedger that drives the --live-status progress line, heartbeat-based
// stall detection, and the schema-v6 `batch` aggregate block of
// --report-out. --trace-out merges every worker's spans into one Perfetto
// timeline with a process lane per worker pid.
//
// Exit status:
//   0  every design legalized (possibly after worker retries)
//   1  usage / IO error (bad or unknown flags, unreadable manifest or
//      outputs)
//   3  at least one design failed, crashed past retries, or is infeasible
//   4  structured parse error in the manifest or an input design
//
// Internal: `mclg_batch --worker ...` is the supervisor's fork/exec target
// (see supervisorWorkerMain); not part of the public CLI surface.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flow/batch_runner.hpp"
#include "flow/supervisor.hpp"
#include "obs/batch_ledger.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_merge.hpp"
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
    "Each design runs in its own supervised worker process; a crash or\n"
    "timeout hits that design only (docs/ROBUSTNESS.md).\n"
    "\n"
    "  --manifest FILE        one design per line: input.mclg [output.mclg]\n"
    "  --jobs N               concurrent worker processes (default:\n"
    "                         hardware threads)\n"
    "  --threads-per-design N stage-parallel lanes inside each design\n"
    "                         (default 1 — best aggregate throughput for\n"
    "                         small designs)\n"
    "  --preset NAME          contest (default) or totaldisp\n"
    "  --scores               evaluate the contest score per design\n"
    "  --shard i/N            process only manifest lines j with j%N == i\n"
    "                         (deterministic: the union over i=0..N-1 is\n"
    "                         exactly the manifest)\n"
    "  --report-out FILE      batch run report (JSON, kind \"bench\",\n"
    "                         supervisor.* metrics and the schema-v6\n"
    "                         batch.* aggregate block included)\n"
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
    "worker failures (docs/ROBUSTNESS.md):\n"
    "  --design-timeout SECS  per-worker wall-clock budget (SIGTERM, then\n"
    "                         SIGKILL after a grace period; default: none)\n"
    "  --max-retries N        re-runs after a crash/timeout (default 2)\n"
    "  --backoff-ms MS        base retry backoff, doubled per retry\n"
    "                         (default 100)\n"
    "  --inject-fault SPEC    deterministic worker fault for stress tests:\n"
    "                         <design>:<segv|abort|kill|hang|degrade>:<n>\n"
    "                         fails attempts 0..n-1 of the named design\n";

const std::set<std::string> kValueFlags = {
    "--manifest",       "--jobs",          "--threads-per-design",
    "--preset",         "--shard",         "--report-out",
    "--telemetry-ms",   "--trace-out",     "--design-timeout",
    "--max-retries",    "--backoff-ms",    "--inject-fault"};
const std::set<std::string> kSwitches = {"--help", "-h", "--scores",
                                         "--live-status"};

/// The command line, parsed strictly: every argument is a known switch, a
/// known value flag, or the value that follows one.
struct Args {
  std::map<std::string, std::string> values;  ///< first occurrence wins
  std::vector<std::string> faults;            ///< every --inject-fault SPEC
  std::set<std::string> switches;

  std::optional<std::string> value(const char* name) const {
    const auto it = values.find(name);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
  bool has(const char* name) const { return switches.count(name) > 0; }
};

bool parseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (kSwitches.count(arg) > 0) {
      args->switches.insert(arg);
      continue;
    }
    if (kValueFlags.count(arg) == 0) {
      std::fprintf(stderr, "mclg_batch: unknown argument '%s'\n", argv[i]);
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mclg_batch: %s needs a value\n", argv[i]);
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--inject-fault") {
      args->faults.push_back(value);
    } else {
      args->values.emplace(arg, value);
    }
  }
  return true;
}

/// Strict integer flag: absent -> fallback; non-numeric, trailing junk, or
/// a value below minValue (or beyond int range) -> usage error (false).
bool argInt(const Args& args, const char* name, int fallback, int minValue,
            int* out) {
  const auto v = args.value(name);
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
bool argSeconds(const Args& args, const char* name, double fallback,
                double* out) {
  const auto v = args.value(name);
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

/// Fault specs are strict too: a typo'd mode must be a usage error, not a
/// fault that silently never fires.
bool validFaultSpec(const std::string& spec) {
  const auto firstColon = spec.find(':');
  const auto lastColon = spec.rfind(':');
  if (firstColon == std::string::npos || lastColon <= firstColon ||
      firstColon == 0) {
    return false;
  }
  const std::string mode =
      spec.substr(firstColon + 1, lastColon - firstColon - 1);
  const std::string count = spec.substr(lastColon + 1);
  bool valid = (mode == "segv" || mode == "abort" || mode == "kill" ||
                mode == "hang" || mode == "degrade") &&
               !count.empty() && count.size() <= 9;
  for (const char c : count) valid = valid && c >= '0' && c <= '9';
  return valid;
}

}  // namespace

int main(int argc, char** argv) {
  // Supervisor fork/exec target: one design per process, frames over
  // --worker-fd. Dispatched before any other flag handling.
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return supervisorWorkerMain(argc, argv);
  }
  // Validate every flag before touching the filesystem or forking, so a
  // bad or unknown flag is always a usage error (exit 1) and never a
  // partial batch.
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fputs("run mclg_batch --help for the flag list\n", stderr);
    return kExitUsage;
  }
  if (args.has("--help") || args.has("-h")) {
    std::fputs(kHelp, stdout);
    return kExitOk;
  }
  const auto manifestPath = args.value("--manifest");
  if (!manifestPath) {
    std::fputs(kHelp, stderr);
    return kExitUsage;
  }

  const std::string presetName = args.value("--preset").value_or("contest");
  if (!PipelineConfig::preset(presetName)) {
    std::fprintf(stderr, "unknown preset '%s'\n", presetName.c_str());
    return kExitUsage;
  }
  SupervisorConfig supervisor;
  supervisor.preset = presetName;
  if (!argInt(args, "--threads-per-design", 1, 1,
              &supervisor.threadsPerDesign) ||
      !argInt(args, "--jobs", 0, 0, &supervisor.maxConcurrent) ||
      !argInt(args, "--telemetry-ms", supervisor.telemetrySampleMs, 0,
              &supervisor.telemetrySampleMs) ||
      !argInt(args, "--max-retries", supervisor.maxRetries, 0,
              &supervisor.maxRetries) ||
      !argInt(args, "--backoff-ms", supervisor.backoffMs, 0,
              &supervisor.backoffMs) ||
      !argSeconds(args, "--design-timeout", 0.0,
                  &supervisor.designTimeoutSeconds)) {
    return kExitUsage;
  }
  supervisor.evaluateScores = args.has("--scores");
  const bool liveStatus = args.has("--live-status");
  const auto traceOut = args.value("--trace-out");
  ShardSpec shard;
  if (const auto shardText = args.value("--shard")) {
    std::string shardError;
    if (!parseShardSpec(*shardText, &shard, &shardError)) {
      std::fprintf(stderr, "mclg_batch: %s\n", shardError.c_str());
      return kExitUsage;
    }
  }
  for (const std::string& spec : args.faults) {
    if (!validFaultSpec(spec)) {
      std::fprintf(stderr,
                   "mclg_batch: invalid fault spec '%s' (want "
                   "<design>:<segv|abort|kill|hang|degrade>:<n>)\n",
                   spec.c_str());
      return kExitUsage;
    }
    supervisor.extraWorkerArgs.push_back("--worker-fault");
    supervisor.extraWorkerArgs.push_back(spec);
  }

  const auto reportOut = args.value("--report-out");
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

  // Live telemetry fold: the supervisor feeds worker frames into it.
  obs::BatchLedger ledger(static_cast<int>(items.size()));
  obs::TraceMerger traceMerger;
  supervisor.workerCommand = {selfExecutablePath(argv[0]), "--worker"};
  supervisor.ledger = &ledger;
  if (traceOut) {
    supervisor.streamTrace = true;
    supervisor.traceMerger = &traceMerger;
  }
  if (liveStatus) {
    supervisor.onStatusLine = [](const std::string& line) {
      std::fprintf(stderr, "\r\33[2K%s", line.c_str());
      std::fflush(stderr);
    };
  }

  Timer timer;
  const std::vector<BatchDesignResult> results =
      runSupervisedManifest(items, supervisor);
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
    values.emplace_back("jobs",
                        static_cast<double>(supervisor.maxConcurrent));
    values.emplace_back("threads_per_design",
                        static_cast<double>(supervisor.threadsPerDesign));
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
      values.emplace_back(prefix + "attempts",
                          static_cast<double>(results[i].attempts));
      if (supervisor.evaluateScores) {
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
