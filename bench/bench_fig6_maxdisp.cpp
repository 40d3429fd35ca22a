// Fig. 6 reproduction: the maximum-displacement matching's effect on one
// cell type's displacement field. Emits before/after SVGs (red displacement
// vectors, as in the paper) plus a displacement histogram per stage.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/histogram.hpp"
#include "eval/report.hpp"
#include "gen/iccad17_suite.hpp"
#include "legal/maxdisp/matching_opt.hpp"
#include "legal/mgl/mgl_legalizer.hpp"

namespace {

void histogram(const char* title, const mclg::Design& design,
               mclg::TypeId type) {
  const mclg::DisplacementHistogram hist =
      mclg::displacementHistogram(design, type);
  std::printf("%s: %d cells, max disp %.1f rows\n%s", title, hist.total,
              hist.maximum, hist.toString().c_str());
}

}  // namespace

int main() {
  using namespace mclg;
  const double scale = bench::scaleFromEnv(0.03);
  std::printf("=== Fig. 6: max-displacement matching, before/after ===\n");

  // A dense contest-style design so the tail is visible.
  GenSpec spec = iccad17Suite(scale)[8].spec;  // fft_2_md2: densest suite entry
  spec.typesPerHeight = 2;                      // larger same-type groups
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  legalizer.run();

  // Pick the most displaced type group.
  std::vector<double> worst(static_cast<std::size_t>(design.numTypes()), 0.0);
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (design.cells[c].fixed) continue;
    auto& w = worst[static_cast<std::size_t>(design.cells[c].type)];
    w = std::max(w, design.displacement(c));
  }
  TypeId type = 0;
  for (TypeId t = 1; t < design.numTypes(); ++t) {
    if (worst[static_cast<std::size_t>(t)] > worst[static_cast<std::size_t>(type)]) {
      type = t;
    }
  }

  histogram("before matching", design, type);
  writeDisplacementSvg(design, type, "fig6_before.svg");

  MaxDispConfig config;
  config.delta0 = 5.0;
  const auto stats = optimizeMaxDisplacement(state, config);
  std::printf("matching: %d groups, %d cells moved\n", stats.groups,
              stats.cellsMoved);

  histogram("after matching", design, type);
  writeDisplacementSvg(design, type, "fig6_after.svg");
  std::printf("wrote fig6_before.svg / fig6_after.svg (type %s)\n",
              design.types[static_cast<std::size_t>(type)].name.c_str());
  return 0;
}
