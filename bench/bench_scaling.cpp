// Runtime scaling of the full pipeline with design size (the paper reports
// near-linear runtimes up to 1.3M cells on the Table 2 suite): one
// single-threaded contest-preset run per size, printed as a table of stage
// seconds, microseconds per cell and average displacement. Placement
// determinism across thread counts is checked by the `perf` ctest label
// (test_perf_equivalence.cpp, test_executor.cpp); per-PR timings live in
// perfbench/.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace mclg;
  std::printf("=== Pipeline runtime scaling ===\n");
  Table table({"#cells", "t.mgl", "t.matching", "t.mcf", "t.total",
               "us/cell", "avgDisp"});
  const int base = static_cast<int>(
      2000 * bench::scaleFromEnv(1.0));
  for (const int cells : {base, base * 2, base * 4, base * 8}) {
    GenSpec spec;
    spec.name = "scale_" + std::to_string(cells);
    spec.cellsPerHeight = {cells * 85 / 100, cells * 9 / 100, cells * 4 / 100,
                           cells * 2 / 100};
    spec.density = 0.55;
    spec.numFences = 2;
    spec.seed = 1000 + static_cast<std::uint64_t>(cells);
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
  return 0;
}
