// Runtime scaling of the full pipeline with design size (the paper reports
// near-linear runtimes up to 1.3M cells on the Table 2 suite), plus the
// perf-regression sweep over thread counts on the largest config.
//
// With MCLG_BENCH_REPORT set, emits bench_scaling.json containing, for the
// largest config at 1/4/8 threads: per-stage seconds (best of
// MCLG_BENCH_REPS runs, default 3), the Eq. 10 score, and the placement
// hash split into two 32-bit halves (so each value is exactly
// representable as a JSON double). scripts/perf_gate.py compares these
// against the committed baseline: hashes and scores must match exactly,
// stage times gate the speedup claims.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int repsFromEnv() {
  if (const char* env = std::getenv("MCLG_BENCH_REPS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

}  // namespace

int main() {
  using namespace mclg;
  std::printf("=== Pipeline runtime scaling ===\n");
  Table table({"#cells", "t.mgl", "t.matching", "t.mcf", "t.total",
               "us/cell", "avgDisp"});
  const int base = static_cast<int>(
      2000 * bench::scaleFromEnv(1.0));
  GenSpec largest;
  for (const int cells : {base, base * 2, base * 4, base * 8}) {
    GenSpec spec;
    spec.name = "scale_" + std::to_string(cells);
    spec.cellsPerHeight = {cells * 85 / 100, cells * 9 / 100, cells * 4 / 100,
                           cells * 2 / 100};
    spec.density = 0.55;
    spec.numFences = 2;
    spec.seed = 1000 + static_cast<std::uint64_t>(cells);
    largest = spec;
    Design design = generate(spec);
    SegmentMap segments(design);
    PlacementState state(design);
    Timer timer;
    const auto stats = legalize(state, segments, PipelineConfig::contest());
    const double seconds = timer.seconds();
    const auto disp = displacementStats(design);
    table.addRow({Table::fmt(static_cast<long long>(cells)),
                  Table::fmt(stats.secondsMgl, 2),
                  Table::fmt(stats.secondsMaxDisp, 2),
                  Table::fmt(stats.secondsFixedRowOrder, 2),
                  Table::fmt(seconds, 2),
                  Table::fmt(seconds * 1e6 / cells, 1),
                  Table::fmt(disp.average, 3)});
    std::fprintf(stderr, "[scaling] %d cells done\n", cells);
  }
  std::printf("%s", table.toString().c_str());

  // Perf-regression sweep: largest config at 1/4/8 threads. Quality values
  // come from the first run (all runs of a thread count are identical by the
  // determinism guarantee); timings are the best of `reps` runs so the gate
  // is robust to scheduler noise on loaded machines.
  const int reps = repsFromEnv();
  std::vector<std::pair<std::string, double>> values;
  values.emplace_back("cells", static_cast<double>(base * 8));
  values.emplace_back("reps", static_cast<double>(reps));
  Table sweep({"threads", "t.mgl", "t.matching", "t.mcf", "score", "hash"});
  for (const int threads : {1, 4, 8}) {
    double bestMgl = 0.0, bestMaxDisp = 0.0, bestFro = 0.0;
    double score = 0.0;
    std::uint64_t hash = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Design design = generate(largest);
      SegmentMap segments(design);
      PlacementState state(design);
      PipelineConfig config = PipelineConfig::contest();
      config.maxDisp.numThreads = threads;
      config.fixedRowOrder.numThreads = threads;
      const auto stats = legalize(state, segments, config);
      if (rep == 0) {
        score = evaluateScore(design, segments).score;
        hash = placementHash(design);
        bestMgl = stats.secondsMgl;
        bestMaxDisp = stats.secondsMaxDisp;
        bestFro = stats.secondsFixedRowOrder;
      } else {
        bestMgl = std::min(bestMgl, stats.secondsMgl);
        bestMaxDisp = std::min(bestMaxDisp, stats.secondsMaxDisp);
        bestFro = std::min(bestFro, stats.secondsFixedRowOrder);
      }
      std::fprintf(stderr, "[sweep] threads=%d rep=%d done\n", threads, rep);
    }
    const std::string p = "t" + std::to_string(threads) + ".";
    values.emplace_back(p + "mgl_seconds", bestMgl);
    values.emplace_back(p + "maxdisp_seconds", bestMaxDisp);
    values.emplace_back(p + "mcf_seconds", bestFro);
    values.emplace_back(p + "stages_seconds", bestMaxDisp + bestFro);
    values.emplace_back(p + "score", score);
    values.emplace_back(p + "hash_lo",
                        static_cast<double>(hash & 0xFFFFFFFFULL));
    values.emplace_back(p + "hash_hi", static_cast<double>(hash >> 32));
    char hashText[24];
    std::snprintf(hashText, sizeof hashText, "%016llx",
                  static_cast<unsigned long long>(hash));
    sweep.addRow({Table::fmt(static_cast<long long>(threads)),
                  Table::fmt(bestMgl, 3), Table::fmt(bestMaxDisp, 3),
                  Table::fmt(bestFro, 3), Table::fmt(score, 4), hashText});
  }
  std::printf("=== Largest config, thread sweep (best of %d) ===\n", reps);
  std::printf("%s", sweep.toString().c_str());
  bench::maybeWriteBenchReport("bench_scaling", values);
  return 0;
}
