// Incremental ECO re-legalization speedup (docs/ECO.md): on a generated
// 16k-cell design (density 0.55, two fences; MCLG_BENCH_SCALE scales it),
// perturb <= 5% of the movable cells' GP targets and compare a full
// pipeline re-run against `ecoRelegalize` from the legal snapshot. Run by
// hand: the speedup is printed, not gated (the last recorded ratio is in
// docs/ECO.md); per-PR ECO regressions are caught by perfbench's
// `eco_serve` workload.
//
// With MCLG_BENCH_REPORT set, emits bench_eco.json with: the full-run and
// incremental timings (best of MCLG_BENCH_REPS runs, default 3), the dirty
// / spill counters, and `exact.identical` — 1 iff `--eco-exact`
// semantics (adopting the shadow full run) produced a placement
// byte-identical to legalizing the perturbed design from scratch. Exits 1
// when that identity fails or the incremental run fell back to a full run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/pipeline.hpp"
#include "util/timer.hpp"

namespace {

int repsFromEnv() {
  if (const char* env = std::getenv("MCLG_BENCH_REPS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

void unplaceMovable(mclg::PlacementState& state) {
  const mclg::Design& design = state.design();
  for (mclg::CellId c = 0; c < design.numCells(); ++c) {
    if (!design.cells[c].fixed && design.cells[c].placed) state.remove(c);
  }
}

}  // namespace

int main() {
  using namespace mclg;
  const int base = static_cast<int>(2000 * bench::scaleFromEnv(1.0));
  const int cells = base * 8;  // 16k cells at scale 1
  GenSpec spec;
  spec.name = "eco_scale_" + std::to_string(cells);
  spec.cellsPerHeight = {cells * 85 / 100, cells * 9 / 100, cells * 4 / 100,
                         cells * 2 / 100};
  spec.density = 0.55;
  spec.numFences = 2;
  spec.seed = 1000 + static_cast<std::uint64_t>(cells);

  // Legal snapshot: the "before ECO" placement every run diffs against.
  Design snapshot = generate(spec);
  {
    SegmentMap segments(snapshot);
    PlacementState state(snapshot);
    legalize(state, segments, PipelineConfig::contest());
  }

  // The ECO edit burst: jitter the GP target of ~5% of the movable cells,
  // clustered around three hotspots (the shape of a real ECO loop — timing
  // fixes concentrate in a few regions; a uniformly scattered burst would
  // dirty every window and is exactly what the driver's covers-core
  // bailout hands to the full pipeline). Deterministic RNG so the
  // committed report is reproducible.
  Design edited = snapshot;
  std::vector<CellId> movable;
  for (CellId c = 0; c < edited.numCells(); ++c) {
    if (!edited.cells[c].fixed) movable.push_back(c);
  }
  const double hotspots[3][2] = {
      {0.20 * edited.numSitesX, 0.25 * edited.numRows},
      {0.50 * edited.numSitesX, 0.70 * edited.numRows},
      {0.80 * edited.numSitesX, 0.35 * edited.numRows}};
  const auto hotspotDistance = [&](CellId c) {
    const Cell& cell = edited.cells[c];
    double best = 1e18;
    for (const auto& h : hotspots) {
      const double dx = (cell.gpX - h[0]) * edited.siteWidthFactor;
      const double dy = cell.gpY - h[1];
      best = std::min(best, dx * dx + dy * dy);
    }
    return best;
  };
  std::sort(movable.begin(), movable.end(), [&](CellId a, CellId b) {
    const double da = hotspotDistance(a), db = hotspotDistance(b);
    if (da != db) return da < db;
    return a < b;
  });
  std::mt19937_64 rng(edited.cells.size() * 7919ULL + 17);
  const int perturbed = static_cast<int>(movable.size()) * 5 / 100;
  std::uniform_int_distribution<int> dx(-24, 24), dy(-6, 6);
  for (int i = 0; i < perturbed; ++i) {
    Cell& cell = edited.cells[movable[i]];
    cell.gpX = std::clamp(cell.gpX + dx(rng), 0.0,
                          static_cast<double>(edited.numSitesX - 1));
    cell.gpY = std::clamp(cell.gpY + dy(rng), 0.0,
                          static_cast<double>(edited.numRows - 1));
  }
  edited.invalidateCaches();

  const int reps = repsFromEnv();
  std::printf("=== ECO incremental vs full re-legalization ===\n");
  std::printf("cells=%d perturbed=%d reps=%d\n", cells, perturbed, reps);

  // Full reference: re-legalize the perturbed design from scratch.
  double fullSeconds = 0.0;
  std::uint64_t fullHash = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Design design = edited;
    SegmentMap segments(design);
    PlacementState state(design);
    unplaceMovable(state);
    Timer timer;
    legalize(state, segments, PipelineConfig::contest());
    const double seconds = timer.seconds();
    fullSeconds = rep == 0 ? seconds : std::min(fullSeconds, seconds);
    if (rep == 0) fullHash = placementHash(design);
    std::fprintf(stderr, "[full] rep=%d %.3fs\n", rep, seconds);
  }

  // Incremental path (no shadow run: what --eco-from costs by default).
  double ecoSeconds = 0.0;
  EcoStats ecoStats;
  for (int rep = 0; rep < reps; ++rep) {
    Design design = edited;
    SegmentMap segments(design);
    PlacementState state(design);
    EcoConfig config;
    config.pipeline = PipelineConfig::contest();
    Timer timer;
    const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
    const double seconds = timer.seconds();
    ecoSeconds = rep == 0 ? seconds : std::min(ecoSeconds, seconds);
    if (rep == 0) ecoStats = stats;
    std::fprintf(stderr, "[eco] rep=%d %.3fs\n", rep, seconds);
  }

  // Exact mode must be byte-identical to the from-scratch reference.
  std::uint64_t exactHash = 0;
  {
    Design design = edited;
    SegmentMap segments(design);
    PlacementState state(design);
    EcoConfig config;
    config.pipeline = PipelineConfig::contest();
    config.exact = true;
    ecoRelegalize(state, segments, snapshot, config);
    exactHash = placementHash(design);
  }
  const bool exactIdentical = exactHash == fullHash;

  const double speedup = ecoSeconds > 0.0 ? fullSeconds / ecoSeconds : 0.0;
  std::printf("full    %.3fs (hash %016llx)\n", fullSeconds,
              static_cast<unsigned long long>(fullHash));
  std::printf("eco     %.3fs (speedup %.2fx, dirty=%d spilled=%d "
              "segments=%d fullFallback=%d)\n",
              ecoSeconds, speedup, ecoStats.dirtyCells, ecoStats.spilledCells,
              ecoStats.dirtySegments, ecoStats.usedFullRun ? 1 : 0);
  std::printf("exact   hash %016llx -> identical=%d\n",
              static_cast<unsigned long long>(exactHash),
              exactIdentical ? 1 : 0);

  std::vector<std::pair<std::string, double>> values;
  values.emplace_back("cells", static_cast<double>(cells));
  values.emplace_back("perturbed_cells", static_cast<double>(perturbed));
  values.emplace_back("reps", static_cast<double>(reps));
  values.emplace_back("full_seconds", fullSeconds);
  values.emplace_back("eco_seconds", ecoSeconds);
  values.emplace_back("dirty_cells", static_cast<double>(ecoStats.dirtyCells));
  values.emplace_back("spilled_cells",
                      static_cast<double>(ecoStats.spilledCells));
  values.emplace_back("dirty_segments",
                      static_cast<double>(ecoStats.dirtySegments));
  values.emplace_back("matched_cells_moved",
                      static_cast<double>(ecoStats.matchedCellsMoved));
  values.emplace_back("ripup_improved",
                      static_cast<double>(ecoStats.ripupImproved));
  values.emplace_back("used_full_run",
                      ecoStats.usedFullRun ? 1.0 : 0.0);
  values.emplace_back("exact.identical", exactIdentical ? 1.0 : 0.0);
  bench::maybeWriteBenchReport("bench_eco", values);
  return exactIdentical && !ecoStats.usedFullRun ? 0 : 1;
}
