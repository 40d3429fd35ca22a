// Supervised batch throughput and telemetry overhead (docs/ROBUSTNESS.md).
//
// The supervised fan-out (flow/supervisor.hpp) buys crash isolation with a
// fork/exec + pipe + reload per design; this bench times it on an 8-design
// manifest and asserts it agrees byte-for-byte with solo runs:
//
//  * `supervised_designs_per_sec` — end-to-end batch throughput with live
//    telemetry on, the configuration mclg_batch ships;
//  * `telemetry_overhead` = supervised_seconds / telemetry-off supervised
//    seconds — the cost of live telemetry (heartbeats + metrics deltas at
//    the default 100 ms sampling), printed, not gated (docs/OBSERVABILITY.md
//    has the <= 2% budget);
//  * `supervised.identical` — every design's placement hash matches a solo
//    runBatchItem run of the same design in this process; the bench exits 1
//    when it does not.
//
// The binary is its own worker: main() dispatches `--worker` argv to
// supervisorWorkerMain, so the supervisor self-execs this bench the same
// way mclg_batch and the supervisor tests do. Timings are
// best-of-MCLG_BENCH_REPS (default 3); MCLG_BENCH_SCALE scales the
// per-design cell count.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "flow/batch_runner.hpp"
#include "flow/supervisor.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "parsers/simple_format.hpp"
#include "util/timer.hpp"

namespace {

int repsFromEnv() {
  if (const char* env = std::getenv("MCLG_BENCH_REPS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

constexpr int kDesigns = 8;

}  // namespace

int main(int argc, char** argv) {
  using namespace mclg;
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return supervisorWorkerMain(argc, argv);
  }

  const int cells = static_cast<int>(1200 * bench::scaleFromEnv(1.0));
  const int reps = repsFromEnv();

  char dirTemplate[] = "/tmp/mclg_bench_supervisor.XXXXXX";
  const char* dir = mkdtemp(dirTemplate);
  if (dir == nullptr) {
    std::fprintf(stderr, "bench_supervisor: mkdtemp failed\n");
    return 1;
  }

  std::vector<BatchManifestItem> items;
  for (int d = 0; d < kDesigns; ++d) {
    GenSpec spec;
    spec.name = "sup_d" + std::to_string(d);
    spec.cellsPerHeight = {cells * 85 / 100, cells * 9 / 100,
                           cells * 4 / 100, cells * 2 / 100};
    spec.density = 0.55;
    spec.numFences = 2;
    spec.seed = 7000 + static_cast<std::uint64_t>(d);
    Design design = generate(spec);
    const std::string input =
        std::string(dir) + "/" + spec.name + ".mclg";
    if (!saveDesign(design, input)) {
      std::fprintf(stderr, "bench_supervisor: cannot write %s\n",
                   input.c_str());
      return 1;
    }
    items.push_back({spec.name, input, ""});
  }

  const int workers = static_cast<int>(
      std::thread::hardware_concurrency() ? std::thread::hardware_concurrency()
                                          : 1);

  std::printf("=== supervised (process-per-design) batch ===\n");
  std::printf("designs=%d cells=%d workers=%d reps=%d\n", kDesigns, cells,
              workers, reps);

  // Supervised mode, live telemetry off (telemetrySampleMs = 0: no sampler
  // thread, no Heartbeat/MetricsDelta frames) — the baseline for
  // telemetry_overhead.
  double supervisedOffSeconds = 1e18;
  {
    SupervisorConfig config;
    config.workerCommand = {selfExecutablePath(argv[0]), "--worker"};
    config.maxConcurrent = workers;
    config.telemetrySampleMs = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      runSupervisedManifest(items, config);
      supervisedOffSeconds = std::min(supervisedOffSeconds, timer.seconds());
    }
  }
  std::printf("supervised (telemetry off) %.3fs (%.1f designs/s)\n",
              supervisedOffSeconds, kDesigns / supervisedOffSeconds);

  // Supervised mode with live telemetry at the default 100 ms sampling —
  // the configuration mclg_batch actually ships.
  std::vector<std::uint64_t> supervisedHashes;
  double supervisedSeconds = 1e18;
  {
    SupervisorConfig config;
    config.workerCommand = {selfExecutablePath(argv[0]), "--worker"};
    config.maxConcurrent = workers;
    config.telemetrySampleMs = 100;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      const auto results = runSupervisedManifest(items, config);
      supervisedSeconds = std::min(supervisedSeconds, timer.seconds());
      if (rep == 0) {
        for (const auto& result : results) {
          supervisedHashes.push_back(result.ok ? result.placementHash : 0);
        }
      }
    }
  }

  // Solo reference: each design legalized on its own in this process,
  // untimed. It runs after the timed runs so the heap it grows does not
  // make this process slower to fork.
  std::vector<std::uint64_t> soloHashes;
  {
    BatchRunConfig config;
    config.pipeline = PipelineConfig::contest();
    for (const BatchManifestItem& item : items) {
      const BatchDesignResult result = runBatchItem(item, config);
      soloHashes.push_back(result.ok ? result.placementHash : 0);
    }
  }

  const double telemetryOverhead =
      supervisedOffSeconds > 0 ? supervisedSeconds / supervisedOffSeconds
                               : 0.0;
  std::printf(
      "supervised    %.3fs (%.1f designs/s, %.3fx telemetry-off)\n",
      supervisedSeconds, kDesigns / supervisedSeconds, telemetryOverhead);

  const bool identical = supervisedHashes == soloHashes;
  std::printf("supervised identical to solo: %d\n", identical);

  std::vector<std::pair<std::string, double>> values;
  values.emplace_back("designs", static_cast<double>(kDesigns));
  values.emplace_back("cells_per_design", static_cast<double>(cells));
  values.emplace_back("reps", static_cast<double>(reps));
  values.emplace_back("workers", static_cast<double>(workers));
  values.emplace_back("supervised_seconds", supervisedSeconds);
  values.emplace_back("supervised_telemetry_off_seconds", supervisedOffSeconds);
  values.emplace_back("telemetry_overhead", telemetryOverhead);
  values.emplace_back("supervised_designs_per_sec",
                      supervisedSeconds > 0 ? kDesigns / supervisedSeconds
                                            : 0.0);
  values.emplace_back("supervised.identical", identical ? 1.0 : 0.0);
  bench::maybeWriteBenchReport("bench_supervisor", values);

  return identical ? 0 : 1;
}
