// Property tests for the incremental ECO re-legalization driver
// (src/legal/eco/, docs/ECO.md): random edit bursts — GP moves, same-type
// GP swaps, appended cells — on generated designs must leave the
// incremental result legal, within the score tolerance of a full re-run,
// deterministic per thread count, and byte-identical to the full re-run
// under exact mode at 1/4/8 threads. The covers-core bailout is pinned on
// scattered and clustered bursts.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/eco/delta_tracker.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/pipeline.hpp"

namespace mclg {
namespace {

Design legalSnapshot(std::uint64_t seed) {
  GenSpec spec;
  spec.name = "eco_test";
  spec.cellsPerHeight = {500, 60, 25, 15};
  spec.density = 0.6;
  spec.numFences = 2;
  spec.seed = seed;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  legalize(state, segments, PipelineConfig::contest());
  EXPECT_TRUE(checkLegality(design, segments).legal());
  return design;
}

std::vector<CellId> movableCells(const Design& design) {
  std::vector<CellId> out;
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (!design.cells[c].fixed) out.push_back(c);
  }
  return out;
}

/// A clustered ECO burst: GP jitter + same-type GP swaps around one
/// hotspot, plus `adds` appended copies of existing movable cells.
Design applyEditBurst(const Design& snapshot, std::uint64_t seed, int moves,
                      int swaps, int adds) {
  Design edited = snapshot;
  std::mt19937_64 rng(seed);
  std::vector<CellId> movable = movableCells(edited);
  const double hx = 0.35 * edited.numSitesX, hy = 0.4 * edited.numRows;
  std::sort(movable.begin(), movable.end(), [&](CellId a, CellId b) {
    const auto dist = [&](CellId c) {
      const double dx = (edited.cells[c].gpX - hx) * edited.siteWidthFactor;
      const double dy = edited.cells[c].gpY - hy;
      return dx * dx + dy * dy;
    };
    const double da = dist(a), db = dist(b);
    if (da != db) return da < db;
    return a < b;
  });
  std::uniform_int_distribution<int> dx(-16, 16), dy(-4, 4);
  int next = 0;
  for (int i = 0; i < moves && next < static_cast<int>(movable.size());
       ++i, ++next) {
    Cell& cell = edited.cells[movable[next]];
    cell.gpX = std::clamp(cell.gpX + dx(rng), 0.0,
                          static_cast<double>(edited.numSitesX - 1));
    cell.gpY = std::clamp(cell.gpY + dy(rng), 0.0,
                          static_cast<double>(edited.numRows - 1));
  }
  for (int i = 0; i < swaps && next + 1 < static_cast<int>(movable.size());
       ++i, next += 2) {
    Cell& a = edited.cells[movable[next]];
    Cell& b = edited.cells[movable[next + 1]];
    std::swap(a.gpX, b.gpX);
    std::swap(a.gpY, b.gpY);
  }
  for (int i = 0; i < adds && !movable.empty(); ++i) {
    Cell fresh = edited.cells[movable[i % movable.size()]];
    fresh.placed = false;
    fresh.x = -1;
    fresh.y = -1;
    fresh.gpX = std::clamp(hx + dx(rng), 0.0,
                           static_cast<double>(edited.numSitesX - 1));
    fresh.gpY = std::clamp(hy + dy(rng), 0.0,
                           static_cast<double>(edited.numRows - 1));
    edited.cells.push_back(fresh);
  }
  edited.invalidateCaches();
  return edited;
}

void unplaceMovable(PlacementState& state) {
  const Design& design = state.design();
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (!design.cells[c].fixed && design.cells[c].placed) state.remove(c);
  }
}

void fullRescoreReference(const Design& edited, const PipelineConfig& config,
                          double* scoreOut, std::uint64_t* hashOut) {
  Design design = edited;
  SegmentMap segments(design);
  PlacementState state(design);
  unplaceMovable(state);
  legalize(state, segments, config);
  if (scoreOut != nullptr) *scoreOut = evaluateScore(design, segments).score;
  if (hashOut != nullptr) *hashOut = placementHash(design);
}

TEST(Eco, RandomBurstsStayLegalWithinTolerance) {
  const Design snapshot = legalSnapshot(901);
  for (const std::uint64_t burstSeed : {11u, 22u, 33u}) {
    Design edited = applyEditBurst(snapshot, burstSeed, /*moves=*/24,
                                   /*swaps=*/4, /*adds=*/6);
    SegmentMap segments(edited);
    PlacementState state(edited);
    EcoConfig config;
    config.pipeline = PipelineConfig::contest();
    const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
    EXPECT_EQ(stats.dirtyCells, stats.movedCells + stats.resizedCells +
                                    stats.addedCells);
    EXPECT_TRUE(checkLegality(edited, segments).legal())
        << "burst seed " << burstSeed
        << " fallback=" << stats.fallbackReason;

    // Within 5% (Eq. 10) of re-legalizing the edited design from scratch.
    double fullScore = 0.0;
    fullRescoreReference(edited, PipelineConfig::contest(), &fullScore,
                         nullptr);
    const double ecoScore = evaluateScore(edited, segments).score;
    EXPECT_LE(ecoScore, fullScore * 1.05 + 1e-9)
        << "burst seed " << burstSeed;
  }
}

TEST(Eco, IncrementalPathIsDeterministic) {
  const Design snapshot = legalSnapshot(902);
  const Design edited =
      applyEditBurst(snapshot, 77, /*moves=*/30, /*swaps=*/5, /*adds=*/4);
  std::uint64_t hashes[2] = {0, 1};
  EcoStats stats[2];
  for (int run = 0; run < 2; ++run) {
    Design design = edited;
    SegmentMap segments(design);
    PlacementState state(design);
    EcoConfig config;
    config.pipeline = PipelineConfig::contest();
    stats[run] = ecoRelegalize(state, segments, snapshot, config);
    hashes[run] = placementHash(design);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(stats[0].usedFullRun, stats[1].usedFullRun);
  EXPECT_FALSE(stats[0].usedFullRun)
      << "clustered burst should stay incremental";
  // The speedup over a full run comes from staying local: the burst
  // touches a small share of the movable cells (82 of 604 here; the bound
  // leaves 2.4x headroom).
  const int touched = stats[0].dirtyCells + stats[0].spilledCells;
  const int movable = static_cast<int>(movableCells(edited).size());
  EXPECT_LT(3 * touched, movable)
      << "dirty " << stats[0].dirtyCells << " + spilled "
      << stats[0].spilledCells << " of " << movable << " movable cells";
}

TEST(Eco, ExactModeByteIdenticalToFullRunAtEachThreadCount) {
  const Design snapshot = legalSnapshot(903);
  const Design edited =
      applyEditBurst(snapshot, 55, /*moves=*/20, /*swaps=*/3, /*adds=*/5);
  for (const int threads : {1, 4, 8}) {
    PipelineConfig pipeline = PipelineConfig::contest();
    pipeline.maxDisp.numThreads = threads;
    // The guarantee is byte-identity with a from-scratch legalize() under
    // the same PipelineConfig.
    std::uint64_t referenceHash = 0;
    fullRescoreReference(edited, pipeline, nullptr, &referenceHash);
    Design design = edited;
    SegmentMap segments(design);
    PlacementState state(design);
    EcoConfig config;
    config.pipeline = pipeline;
    config.exact = true;
    const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
    EXPECT_TRUE(stats.exactVerified) << "threads=" << threads;
    EXPECT_EQ(placementHash(design), referenceHash) << "threads=" << threads;
    EXPECT_TRUE(checkLegality(design, segments).legal());
  }
}

TEST(Eco, ValidateModeAuditsEquivalence) {
  const Design snapshot = legalSnapshot(904);
  Design edited =
      applyEditBurst(snapshot, 88, /*moves=*/16, /*swaps=*/2, /*adds=*/3);
  SegmentMap segments(edited);
  PlacementState state(edited);
  EcoConfig config;
  config.pipeline = PipelineConfig::contest();
  config.validate = true;
  config.scoreTolerance = 0.05;
  const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
  EXPECT_TRUE(stats.exactVerified);
  EXPECT_GE(stats.scoreIncremental, 0.0);
  EXPECT_GE(stats.scoreFull, 0.0);
  EXPECT_GT(stats.secondsShadow, 0.0);
}

TEST(Eco, AddedCellsArePlaced) {
  const Design snapshot = legalSnapshot(905);
  Design edited =
      applyEditBurst(snapshot, 99, /*moves=*/0, /*swaps=*/0, /*adds=*/12);
  SegmentMap segments(edited);
  PlacementState state(edited);
  EcoConfig config;
  config.pipeline = PipelineConfig::contest();
  const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
  EXPECT_EQ(stats.addedCells, 12);
  for (CellId c = snapshot.numCells(); c < edited.numCells(); ++c) {
    EXPECT_TRUE(edited.cells[c].placed) << "added cell " << c;
  }
  EXPECT_TRUE(checkLegality(edited, segments).legal());
}

TEST(Eco, StructuralDiffFallsBackToFullRun) {
  const Design snapshot = legalSnapshot(906);
  Design edited = snapshot;
  edited.cells.pop_back();  // cell removal is outside the delta model
  edited.invalidateCaches();
  SegmentMap segments(edited);
  PlacementState state(edited);
  EcoConfig config;
  config.pipeline = PipelineConfig::contest();
  const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
  EXPECT_TRUE(stats.usedFullRun);
  EXPECT_FALSE(stats.fallbackReason.empty());
  EXPECT_TRUE(checkLegality(edited, segments).legal());
}

TEST(Eco, TrivialDeltaTouchesNothing) {
  const Design snapshot = legalSnapshot(907);
  Design edited = snapshot;
  SegmentMap segments(edited);
  PlacementState state(edited);
  EcoConfig config;
  config.pipeline = PipelineConfig::contest();
  const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
  EXPECT_EQ(stats.dirtyCells, 0);
  EXPECT_FALSE(stats.usedFullRun);
  EXPECT_EQ(placementHash(edited), placementHash(snapshot));
}

// The covers-core bailout: when the dirty cells' halo-widened level-0
// windows (and their vacated spots) cover at least 90% of the level-0 tile
// grid, ecoRelegalize runs the full pipeline instead. Pinned on
// `mclg_cli generate --cells 2000 --density 0.55 --fences 2 --seed 1`,
// legalized with the contest preset.
Design legalCliDesign() {
  constexpr int kCells = 2000;
  GenSpec spec;
  spec.cellsPerHeight = {kCells * 8 / 10, kCells * 12 / 100, kCells * 5 / 100,
                         kCells * 3 / 100};
  spec.density = 0.55;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = 1;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  legalize(state, segments, PipelineConfig::contest());
  EXPECT_TRUE(checkLegality(design, segments).legal());
  return design;
}

/// GP jitter on `count` movable cells picked at random over the core.
Design scatteredMoves(const Design& snapshot, std::uint64_t seed, int count) {
  Design edited = snapshot;
  std::mt19937_64 rng(seed);
  std::vector<CellId> movable = movableCells(edited);
  std::shuffle(movable.begin(), movable.end(), rng);
  std::uniform_int_distribution<int> dx(-16, 16), dy(-4, 4);
  for (int i = 0; i < count; ++i) {
    Cell& cell = edited.cells[movable[static_cast<std::size_t>(i)]];
    cell.gpX = std::clamp(cell.gpX + dx(rng), 0.0,
                          static_cast<double>(edited.numSitesX - 1));
    cell.gpY = std::clamp(cell.gpY + dy(rng), 0.0,
                          static_cast<double>(edited.numRows - 1));
  }
  edited.invalidateCaches();
  return edited;
}

EcoStats ecoRun(Design& edited, const Design& snapshot) {
  SegmentMap segments(edited);
  PlacementState state(edited);
  EcoConfig config;
  config.pipeline = PipelineConfig::contest();
  const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
  EXPECT_TRUE(checkLegality(edited, segments).legal());
  return stats;
}

// The core is 238 sites × 122 rows: 10 × 16 = 160 level-0 tiles, so the
// run bails out once at most 16 tiles stay clean.
TEST(EcoBailout, FewScatteredMovesStayIncremental) {
  const Design snapshot = legalCliDesign();
  Design edited = scatteredMoves(snapshot, 5, /*count=*/5);
  const EcoStats stats = ecoRun(edited, snapshot);
  EXPECT_EQ(stats.movedCells, 5);
  EXPECT_FALSE(stats.usedFullRun) << stats.fallbackReason;
  EXPECT_EQ(stats.reusedWindows, 60);
}

TEST(EcoBailout, ScatteredBurstCoversTheCore) {
  const Design snapshot = legalCliDesign();
  struct Burst {
    std::uint64_t seed;
    int count;
    long long reused;
    bool full;
  };
  // Ten scattered moves are enough; 16 clean tiles is the last count that
  // still bails out and 17 the first that stays incremental.
  for (const Burst& burst : {Burst{1, 10, 9, true}, Burst{2, 16, 16, true},
                             Burst{3, 14, 17, false}}) {
    Design edited = scatteredMoves(snapshot, burst.seed, burst.count);
    const EcoStats stats = ecoRun(edited, snapshot);
    EXPECT_EQ(stats.movedCells, burst.count) << "seed " << burst.seed;
    EXPECT_EQ(stats.reusedWindows, burst.reused) << "seed " << burst.seed;
    EXPECT_EQ(stats.usedFullRun, burst.full) << "seed " << burst.seed;
    EXPECT_EQ(stats.fallbackReason,
              burst.full ? "dirty region covers the core" : "")
        << "seed " << burst.seed;
  }
}

TEST(EcoBailout, ClusteredBurstStaysIncremental) {
  const Design snapshot = legalCliDesign();
  Design edited =
      applyEditBurst(snapshot, 10, /*moves=*/10, /*swaps=*/0, /*adds=*/0);
  const EcoStats stats = ecoRun(edited, snapshot);
  EXPECT_EQ(stats.movedCells, 10);
  EXPECT_FALSE(stats.usedFullRun) << stats.fallbackReason;
  EXPECT_EQ(stats.reusedWindows, 119);
}

// MGL takes the cells it places from the state's unplaced list, not from
// the dirty set: a clean cell that was already unplaced in the snapshot
// (neither edited nor dirty) must still be placed by an incremental run.
TEST(Eco, UnplacedCleanCellOutsideTheDirtySetIsPlaced) {
  Design snapshot = legalSnapshot(909);
  const std::vector<CellId> movable = movableCells(snapshot);
  const CellId stray = movable[movable.size() / 2];
  snapshot.cells[stray].placed = false;
  Design edited =
      applyEditBurst(snapshot, 17, /*moves=*/6, /*swaps=*/0, /*adds=*/0);
  const std::vector<CellId> dirty =
      DeltaTracker::diff(edited, snapshot).dirtyCells();
  ASSERT_FALSE(std::binary_search(dirty.begin(), dirty.end(), stray));
  SegmentMap segments(edited);
  PlacementState state(edited);
  EcoConfig config;
  config.pipeline = PipelineConfig::contest();
  const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
  EXPECT_FALSE(stats.usedFullRun) << stats.fallbackReason;
  EXPECT_TRUE(edited.cells[stray].placed);
  EXPECT_TRUE(checkLegality(edited, segments).legal());
}

// touched() lists the marked cells without a per-cell table: ascending,
// without repeats, and equal to a flag per cell, whichever order cells are
// marked in, across resets and repeated queries.
TEST(Eco, DeltaTrackerTouchedMatchesFlagScan) {
  std::mt19937_64 rng(31);
  constexpr int kCells = 500;
  DeltaTracker tracker;
  std::vector<char> flags(kCells, 0);
  for (int op = 0; op < 20000; ++op) {
    const auto action = rng() % 100;
    const auto c = static_cast<CellId>(rng() % kCells);
    if (action < 2) {
      tracker.reset();
      std::fill(flags.begin(), flags.end(), 0);
    } else if (action < 10) {
      std::vector<CellId> expected;
      for (CellId t = 0; t < kCells; ++t) {
        if (flags[static_cast<std::size_t>(t)] != 0) expected.push_back(t);
      }
      ASSERT_EQ(expected, tracker.touched()) << "op " << op;
    } else {
      // A run of marks on one cell, as a push chain shifts it repeatedly.
      for (auto repeat = rng() % 3; repeat-- > 0;) {
        switch (action % 4) {
          case 0:
            tracker.mark(c);
            break;
          case 1:
            tracker.onPlace(c);
            break;
          case 2:
            tracker.onRemove(c);
            break;
          default:
            tracker.onShift(c);
            break;
        }
        flags[static_cast<std::size_t>(c)] = 1;
      }
    }
  }
}

/// The kept cells of c's stage-3 subset: every cell of its rows within
/// kEcoChainHalo chain positions of it, ascending — what stage 5 used to
/// audit for a marked cell.
std::vector<CellId> keptAround(const PlacementState& state, CellId c) {
  const Design& design = state.design();
  const Cell& cell = design.cells[c];
  std::vector<CellId> kept;
  for (std::int64_t y = cell.y; y < cell.y + design.heightOf(c); ++y) {
    std::vector<CellId> row;
    for (const auto& entry : state.rowCells(y)) row.push_back(entry.second);
    const auto j = std::find(row.begin(), row.end(), c) - row.begin();
    const auto last = static_cast<std::ptrdiff_t>(row.size()) - 1;
    for (auto t = std::max<std::ptrdiff_t>(0, j - kEcoChainHalo);
         t <= std::min(last, j + kEcoChainHalo); ++t) {
      kept.push_back(row[static_cast<std::size_t>(t)]);
    }
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  return kept;
}

// Stage 5 audits the cells the run placed or moved, stage 3 included, not
// every kept cell of each stage-3 subset. A cell nothing moved keeps its
// legal spot and can only turn illegal by overlapping a moved cell, which
// cellsLegal checks from the moved cell's side against both neighbours in
// each of its rows. So with one cell shifted onto an unmoved kept
// neighbour — right or left, in any row of a multi-row cell — or just
// next to it, auditing the moved cell alone gives the kept subset's
// verdict, and both agree with checkLegality.
TEST(EcoAudit, MovedCellsGiveTheKeptSubsetVerdict) {
  Design design = legalSnapshot(44);
  SegmentMap segments(design);
  PlacementState state(design);
  int overlaps = 0;
  int multiRowOverlaps = 0;
  int clean = 0;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const Cell& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const std::int64_t x0 = cell.x;
    const int w = design.widthOf(c);
    const int h = design.heightOf(c);
    // The nearest neighbour edges over the cell's rows.
    std::int64_t leftEdge = 0;
    std::int64_t rightEdge = design.numSitesX;
    for (std::int64_t y = cell.y; y < cell.y + h; ++y) {
      const auto& row = state.rowCells(y);
      const auto it = row.find(x0);
      if (it != row.begin()) {
        const auto prev = std::prev(it);
        leftEdge =
            std::max(leftEdge, prev->first + design.widthOf(prev->second));
      }
      if (std::next(it) != row.end()) {
        rightEdge = std::min(rightEdge, std::next(it)->first);
      }
    }
    for (const std::int64_t target :
         {rightEdge - w + 1, leftEdge - 1, rightEdge - w, leftEdge}) {
      if (target == x0 || target < 0 || target + w > design.numSitesX) {
        continue;
      }
      // The occupancy index holds one cell per x in a row.
      bool taken = false;
      for (std::int64_t y = cell.y; y < cell.y + h; ++y) {
        taken = taken || state.rowCells(y).find(target) !=
                             state.rowCells(y).end();
      }
      if (taken) continue;
      state.shiftX(c, target);
      const bool movedVerdict = cellsLegal(state, segments, {c});
      EXPECT_EQ(cellsLegal(state, segments, keptAround(state, c)),
                movedVerdict)
          << "cell " << c << " at x " << target;
      const LegalityReport full = checkLegality(design, segments);
      EXPECT_EQ(full.legal(), movedVerdict) << "cell " << c << " at x "
                                            << target;
      if (full.overlaps > 0) {
        ++overlaps;
        if (h > 1) ++multiRowOverlaps;
      } else if (full.legal()) {
        ++clean;
      }
      state.shiftX(c, x0);
    }
  }
  EXPECT_GT(overlaps, 100);
  EXPECT_GT(multiRowOverlaps, 5);
  EXPECT_GT(clean, 100);
}

TEST(Eco, DeltaTrackerClassifiesBurst) {
  const Design snapshot = legalSnapshot(908);
  const Design edited =
      applyEditBurst(snapshot, 44, /*moves=*/10, /*swaps=*/2, /*adds=*/3);
  const DeltaSet delta = DeltaTracker::diff(edited, snapshot);
  EXPECT_FALSE(delta.structural);
  EXPECT_EQ(static_cast<int>(delta.added.size()), 3);
  // moves + both sides of each swap, minus any jitter that landed exactly
  // back on the original target.
  EXPECT_GE(static_cast<int>(delta.moved.size()), 10);
  EXPECT_LE(static_cast<int>(delta.moved.size()), 14);
  EXPECT_TRUE(delta.resized.empty());
}

}  // namespace
}  // namespace mclg
