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
// stall detection, and the schema-v8 `batch` aggregate block of
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

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "flow/batch_runner.hpp"
#include "flow/supervisor.hpp"
#include "legal/guard/guard.hpp"
#include "obs/batch_ledger.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_merge.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace {

using namespace mclg;

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
    "                         supervisor.* metrics and the schema-v8\n"
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

// The minimums keep a run meaningful: at least one lane per design, no
// negative counts or intervals (--jobs 0 = hardware threads).
using enum FlagKind;

const FlagSpec kFlags[] = {
    {"--help", Switch}, {"-h", Switch}, {"--scores", Switch},
    {"--live-status", Switch}, {"--manifest", Text}, {"--preset", Text},
    {"--shard", Text}, {"--report-out", Text}, {"--trace-out", Text},
    {"--inject-fault", Text}, {"--jobs", Integer, 0},
    {"--threads-per-design", Integer, 1}, {"--telemetry-ms", Integer, 0},
    {"--max-retries", Integer, 0}, {"--backoff-ms", Integer, 0},
    {"--design-timeout", Number},
};

GuardExitCode runBatch(int argc, char** argv) {
  // Validate every flag before touching the filesystem or forking, so a
  // bad or unknown flag is always a usage error (exit 1) and never a
  // partial batch.
  const auto flags = Flags::parse("mclg_batch", kFlags, argc, argv, 1);
  if (!flags) {
    std::fputs("run mclg_batch --help for the flag list\n", stderr);
    return GuardExitCode::Usage;
  }
  if (flags->has("--help") || flags->has("-h")) {
    std::fputs(kHelp, stdout);
    return GuardExitCode::Legal;
  }
  const auto manifestPath = flags->text("--manifest");
  if (!manifestPath) {
    std::fputs(kHelp, stderr);
    return GuardExitCode::Usage;
  }

  const std::string presetName = flags->text("--preset").value_or("contest");
  if (!PipelineConfig::preset(presetName)) {
    std::fprintf(stderr, "unknown preset '%s'\n", presetName.c_str());
    return GuardExitCode::Usage;
  }
  SupervisorConfig supervisor;
  supervisor.preset = presetName;
  supervisor.threadsPerDesign =
      static_cast<int>(flags->integer("--threads-per-design", 1));
  supervisor.maxConcurrent = static_cast<int>(flags->integer("--jobs", 0));
  supervisor.telemetrySampleMs = static_cast<int>(
      flags->integer("--telemetry-ms", supervisor.telemetrySampleMs));
  supervisor.maxRetries =
      static_cast<int>(flags->integer("--max-retries", supervisor.maxRetries));
  supervisor.backoffMs =
      static_cast<int>(flags->integer("--backoff-ms", supervisor.backoffMs));
  supervisor.designTimeoutSeconds = flags->number("--design-timeout", 0.0);
  supervisor.evaluateScores = flags->has("--scores");
  const bool liveStatus = flags->has("--live-status");
  const auto traceOut = flags->text("--trace-out");
  ShardSpec shard;
  if (const auto shardText = flags->text("--shard")) {
    std::string shardError;
    if (!parseShardSpec(*shardText, &shard, &shardError)) {
      std::fprintf(stderr, "mclg_batch: %s\n", shardError.c_str());
      return GuardExitCode::Usage;
    }
  }
  for (const std::string& spec : flags->values("--inject-fault")) {
    FaultSpecParts parts;
    if (!splitFaultSpec(spec, &parts)) {
      std::fprintf(stderr,
                   "mclg_batch: invalid fault spec '%s' (want "
                   "<design>:<segv|abort|kill|hang|degrade>:<n>, n >= 1)\n",
                   spec.c_str());
      return GuardExitCode::Usage;
    }
    supervisor.extraWorkerArgs.push_back("--worker-fault");
    supervisor.extraWorkerArgs.push_back(spec);
  }

  const auto reportOut = flags->text("--report-out");
  if (reportOut) {
    obs::setMetricsEnabled(true);
    obs::metricsReset();
  }

  std::vector<BatchManifestItem> items;
  std::string manifestError;
  if (!loadBatchManifest(*manifestPath, &items, &manifestError)) {
    std::fprintf(stderr, "%s\n", manifestError.c_str());
    return GuardExitCode::ParseError;
  }
  if (items.empty()) {
    std::fprintf(stderr, "manifest '%s' lists no designs\n",
                 manifestPath->c_str());
    return GuardExitCode::Usage;
  }
  const std::size_t manifestTotal = items.size();
  items = shardManifest(items, shard);
  if (items.empty()) {
    std::printf("shard %d/%d of %zu designs is empty; nothing to do\n",
                shard.index, shard.count, manifestTotal);
    return GuardExitCode::Legal;
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
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s\n", reportOut->c_str());
  }
  if (traceOut) {
    if (!traceMerger.write(*traceOut)) {
      std::fprintf(stderr, "cannot write %s\n", traceOut->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s (%zu lanes, %zu spans)\n", traceOut->c_str(),
                traceMerger.workerLanes(), traceMerger.spanCount());
  }

  return okCount == total ? GuardExitCode::Legal : GuardExitCode::Infeasible;
}

}  // namespace

int main(int argc, char** argv) {
  // Supervisor fork/exec target: one design per process, frames over
  // --worker-fd. Dispatched before any other flag handling.
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return supervisorWorkerMain(argc, argv);
  }
  return static_cast<int>(runBatch(argc, argv));
}
