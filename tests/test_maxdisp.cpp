// Maximum-displacement matching tests (paper §3.2, Eq. 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/maxdisp/matching_opt.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::smallDesign;

TEST(PhiCost, LinearBelowThreshold) {
  EXPECT_DOUBLE_EQ(phiCost(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(phiCost(5.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(phiCost(10.0, 10.0), 10.0);
}

TEST(PhiCost, QuinticAboveThreshold) {
  // δ^5 / δ0^4 with δ = 20, δ0 = 10: 3.2e6 / 1e4 = 320.
  EXPECT_DOUBLE_EQ(phiCost(20.0, 10.0), 320.0);
  EXPECT_DOUBLE_EQ(phiCost(30.0, 10.0), 2430.0);
}

TEST(PhiCost, ContinuousAtThreshold) {
  const double eps = 1e-9;
  EXPECT_NEAR(phiCost(10.0 + eps, 10.0), phiCost(10.0, 10.0), 1e-6);
}

TEST(PhiCost, StrictlyIncreasing) {
  double prev = -1.0;
  for (double delta = 0.0; delta < 40.0; delta += 0.5) {
    const double v = phiCost(delta, 10.0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(MaxDisp, SwapsTwoCrossedCells) {
  // Two same-type cells placed at each other's GP: matching must swap them.
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 0, 30.0, 7.0);
  PlacementState state(d);
  state.place(a, 30, 7);  // far from its GP
  state.place(b, 5, 2);
  MaxDispConfig config;
  config.delta0 = 1.0;
  const auto stats = optimizeMaxDisplacement(state, config);
  EXPECT_EQ(stats.cellsMoved, 2);
  EXPECT_EQ(d.cells[a].x, 5);
  EXPECT_EQ(d.cells[a].y, 2);
  EXPECT_EQ(d.cells[b].x, 30);
  EXPECT_EQ(d.cells[b].y, 7);
}

TEST(MaxDisp, DifferentTypesNeverSwap) {
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 2, 30.0, 5.0);  // different type
  PlacementState state(d);
  state.place(a, 30, 7);
  state.place(b, 5, 2);
  const auto stats = optimizeMaxDisplacement(state, {});
  EXPECT_EQ(stats.cellsMoved, 0);
}

TEST(MaxDisp, DifferentFencesNeverSwap) {
  Design d = smallDesign();
  d.fences.push_back({"f1", {{0, 0, 40, 10}}});
  const CellId a = addCell(d, 0, 5.0, 2.0, kDefaultFence);
  const CellId b = addCell(d, 0, 30.0, 7.0, 1);
  PlacementState state(d);
  state.place(a, 30, 7);
  state.place(b, 5, 2);
  const auto stats = optimizeMaxDisplacement(state, {});
  EXPECT_EQ(stats.cellsMoved, 0);
}

TEST(MaxDisp, NoMovesWhenAlreadyOptimal) {
  Design d = smallDesign();
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 0, 30.0, 7.0);
  PlacementState state(d);
  state.place(a, 5, 2);
  state.place(b, 30, 7);
  const auto stats = optimizeMaxDisplacement(state, {});
  EXPECT_EQ(stats.cellsMoved, 0);
}

TEST(MaxDisp, ReducesMaxOnGeneratedDesign) {
  GenSpec spec;
  spec.cellsPerHeight = {500, 50, 0, 0};
  spec.density = 0.75;
  spec.typesPerHeight = 2;  // few types -> large matching groups
  spec.seed = 21;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);

  const auto before = displacementStats(design);
  MaxDispConfig config;
  config.delta0 = 2.0;  // aggressive so the test bites
  optimizeMaxDisplacement(state, config);
  const auto after = displacementStats(design);
  EXPECT_LE(after.maximum, before.maximum + 1e-9);
  // Legality must be preserved exactly.
  const auto report = checkLegality(design, segments);
  EXPECT_TRUE(report.legal());
  // Pin and edge violation counts must not change (same positions reused).
  // (Checked via totals since per-position status is permutation-invariant.)
}

TEST(MaxDisp, PreservesViolationCounts) {
  GenSpec spec;
  spec.cellsPerHeight = {300, 30, 0, 0};
  spec.density = 0.6;
  spec.typesPerHeight = 2;
  spec.seed = 22;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);
  const auto pinsBefore = countPinViolations(design);
  const int edgesBefore = countEdgeSpacingViolations(design);
  MaxDispConfig config;
  config.delta0 = 2.0;
  optimizeMaxDisplacement(state, config);
  const auto pinsAfter = countPinViolations(design);
  EXPECT_EQ(pinsBefore.total(), pinsAfter.total());
  EXPECT_EQ(edgesBefore, countEdgeSpacingViolations(design));
}

TEST(MaxDisp, LargeGroupSplitStillLegal) {
  GenSpec spec;
  spec.cellsPerHeight = {600, 0, 0, 0};
  spec.density = 0.5;
  spec.typesPerHeight = 1;  // one giant group
  spec.seed = 23;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);
  MaxDispConfig config;
  config.maxGroupSize = 100;  // force chunking
  const auto stats = optimizeMaxDisplacement(state, config);
  EXPECT_GT(stats.groups, 1);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(FootprintMatching, SwapsAcrossTypesWithSameFootprint) {
  // Two types with identical footprints; cells placed at each other's GP.
  Design d = smallDesign();
  CellType clone = d.types[0];
  clone.name = "T0b";
  d.types.push_back(clone);
  const TypeId other = d.numTypes() - 1;
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, other, 30.0, 7.0);
  PlacementState state(d);
  state.place(a, 30, 7);
  state.place(b, 5, 2);

  MaxDispConfig typeGrouped;
  typeGrouped.delta0 = 1.0;
  EXPECT_EQ(optimizeMaxDisplacement(state, typeGrouped).cellsMoved, 0)
      << "different types must not swap in type-grouped mode";

  MaxDispConfig footprintGrouped = typeGrouped;
  footprintGrouped.groupByFootprint = true;
  EXPECT_EQ(optimizeMaxDisplacement(state, footprintGrouped).cellsMoved, 2);
  EXPECT_EQ(d.cells[a].x, 5);
  EXPECT_EQ(d.cells[b].x, 30);
}

TEST(FootprintMatching, DifferentFootprintsNeverMerge) {
  Design d = smallDesign();  // T0 is 2x1, T2 is 4x3
  const CellId a = addCell(d, 0, 5.0, 2.0);
  const CellId b = addCell(d, 2, 30.0, 5.0);
  PlacementState state(d);
  state.place(a, 30, 2);
  state.place(b, 5, 5);
  MaxDispConfig config;
  config.groupByFootprint = true;
  EXPECT_EQ(optimizeMaxDisplacement(state, config).cellsMoved, 0);
}

TEST(FootprintMatching, ParallelMatchesSerial) {
  GenSpec s;
  s.cellsPerHeight = {600, 60, 0, 0};
  s.density = 0.7;
  s.typesPerHeight = 3;
  s.seed = 175;
  Design serial = generate(s);
  Design parallel = generate(s);
  for (Design* d : {&serial, &parallel}) {
    SegmentMap segments(*d);
    PlacementState state(*d);
    MglLegalizer legalizer(state, segments, {});
    ASSERT_EQ(legalizer.run().failed, 0);
    MaxDispConfig config;
    config.groupByFootprint = true;
    config.numThreads = d == &parallel ? 4 : 1;
    optimizeMaxDisplacement(state, config);
  }
  for (CellId c = 0; c < serial.numCells(); ++c) {
    ASSERT_EQ(serial.cells[c].x, parallel.cells[c].x) << "cell " << c;
    ASSERT_EQ(serial.cells[c].y, parallel.cells[c].y) << "cell " << c;
  }
}

// ---- Focused selection oracle ---------------------------------------------

/// The focused chunk selection as the sort-and-slice grouping computes it:
/// group every placed movable cell by (type, fence) — or (footprint,
/// fence) — sort each focused group row-major, slice it into maxGroupSize
/// chunks (dropping a one-cell tail), keep the chunks holding a focused
/// cell, re-sort each and trim it to the focused cells ± focusTrim.
/// focusedMatchingChunks must return the same list.
std::vector<std::vector<CellId>> sortAndSliceChunks(
    const Design& design, const MaxDispConfig& config,
    const std::vector<char>& focus) {
  const auto rowMajor = [&](std::vector<CellId>& cells) {
    std::sort(cells.begin(), cells.end(), [&](CellId a, CellId b) {
      return std::tuple(design.cells[a].y, design.cells[a].x, a) <
             std::tuple(design.cells[b].y, design.cells[b].x, b);
    });
  };
  using Key = std::tuple<int, int, int, int, int, FenceId>;
  std::map<Key, std::vector<CellId>> groups;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const Cell& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const CellType& type = design.typeOf(c);
    groups[config.groupByFootprint
               ? Key{type.width, type.height, type.parity, type.leftEdge,
                     type.rightEdge, cell.fence}
               : Key{cell.type, 0, 0, 0, 0, cell.fence}]
        .push_back(c);
  }
  const auto isFocused = [&](CellId c) {
    return focus[static_cast<std::size_t>(c)] != 0;
  };
  std::vector<std::vector<CellId>> chunks;
  for (auto& [key, cells] : groups) {
    (void)key;
    if (cells.size() < 2 || std::none_of(cells.begin(), cells.end(),
                                         isFocused)) {
      continue;
    }
    const auto size = static_cast<std::size_t>(config.maxGroupSize);
    if (cells.size() <= size) {
      chunks.push_back(cells);
      continue;
    }
    rowMajor(cells);
    for (std::size_t start = 0; start < cells.size(); start += size) {
      const std::size_t end = std::min(cells.size(), start + size);
      if (end - start < 2) break;
      chunks.emplace_back(cells.begin() + static_cast<std::ptrdiff_t>(start),
                          cells.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  std::erase_if(chunks, [&](const std::vector<CellId>& chunk) {
    return std::none_of(chunk.begin(), chunk.end(), isFocused);
  });
  for (auto& chunk : chunks) {
    rowMajor(chunk);
    const int n = static_cast<int>(chunk.size());
    std::vector<char> keep(static_cast<std::size_t>(n), 0);
    for (int j = 0; j < n; ++j) {
      if (!isFocused(chunk[static_cast<std::size_t>(j)])) continue;
      for (int t = std::max(0, j - config.focusTrim);
           t <= std::min(n - 1, j + config.focusTrim); ++t) {
        keep[static_cast<std::size_t>(t)] = 1;
      }
    }
    std::vector<CellId> trimmed;
    for (int j = 0; j < n; ++j) {
      if (keep[static_cast<std::size_t>(j)]) {
        trimmed.push_back(chunk[static_cast<std::size_t>(j)]);
      }
    }
    chunk = std::move(trimmed);
  }
  std::erase_if(chunks, [](const std::vector<CellId>& chunk) {
    return chunk.size() < 2;
  });
  return chunks;
}

// Random legal designs with one or two types per height, so (type ×
// fence) groups hold dozens of cells, against small maxGroupSize (5–9) and
// focusTrim (1–4). Each trial focuses cells at chosen ranks of one group —
// two in one chunk, two across a chunk boundary, the group's last cell, or
// the last cell of a one-cell tail slice that is dropped — plus a few
// random cells anywhere (fixed ones included, which never count). Every
// third trial groups by footprint instead.
TEST(FocusedMatching, RankSelectionMatchesSortAndSlice) {
  int sameChunk = 0, adjacentChunks = 0, lastChunk = 0, droppedTail = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    GenSpec spec;
    spec.cellsPerHeight = {240, 30, 10, 0};
    spec.density = 0.65;
    spec.typesPerHeight = 1 + static_cast<int>(seed % 2);
    spec.numFences = static_cast<int>(seed % 3);
    spec.seed = seed;
    Design design = generate(spec);
    // A same-footprint clone of every type takes a third of its cells, so
    // footprint groups span two types.
    const TypeId numTypes = design.numTypes();
    for (TypeId t = 0; t < numTypes; ++t) {
      CellType clone = design.types[static_cast<std::size_t>(t)];
      clone.name += "_clone";
      design.types.push_back(clone);
    }
    for (CellId c = 0; c < design.numCells(); ++c) {
      Cell& cell = design.cells[c];
      if (!cell.fixed && c % 3 == 0) cell.type += numTypes;
    }
    design.invalidateCaches();
    SegmentMap segments(design);
    PlacementState state(design);
    MglLegalizer legalizer(state, segments, {});
    ASSERT_EQ(legalizer.run().failed, 0);

    std::map<std::pair<std::int64_t, FenceId>, std::vector<CellId>> groups;
    for (CellId c = 0; c < design.numCells(); ++c) {
      const Cell& cell = design.cells[c];
      if (!cell.fixed && cell.placed) {
        groups[{cell.type, cell.fence}].push_back(c);
      }
    }
    std::vector<std::vector<CellId>> sorted;
    for (auto& [key, cells] : groups) {
      (void)key;
      std::sort(cells.begin(), cells.end(), [&](CellId a, CellId b) {
        return std::tuple(design.cells[a].y, design.cells[a].x, a) <
               std::tuple(design.cells[b].y, design.cells[b].x, b);
      });
      if (cells.size() >= 20) sorted.push_back(cells);
    }
    ASSERT_FALSE(sorted.empty());

    std::mt19937_64 rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      const auto& group = sorted[rng() % sorted.size()];
      const int n = static_cast<int>(group.size());
      MaxDispConfig config;
      config.delta0 = 1.0;
      config.maxGroupSize = 5 + static_cast<int>(rng() % 5);
      config.focusTrim = 1 + static_cast<int>(rng() % 4);
      config.groupByFootprint = trial % 3 == 2;
      const int m = config.maxGroupSize;
      std::vector<int> ranks;
      switch (trial % 4) {
        case 0:  // two focused cells in one chunk
          ranks = {m + 1, m + 3};
          ++sameChunk;
          break;
        case 1:  // two focused cells on either side of a chunk boundary
          ranks = {2 * m - 1, 2 * m};
          ++adjacentChunks;
          break;
        case 2:  // the group's last cell, in its last chunk
          ranks = {n - 1};
          ++lastChunk;
          break;
        default:  // a one-cell tail slice: dropped, never solved
          for (int size = 5; size <= 9; ++size) {
            if (n % size == 1) config.maxGroupSize = size;
          }
          ranks = {n - 1, n / 2};
          if (n % config.maxGroupSize == 1) ++droppedTail;
          break;
      }
      std::vector<char> focus(static_cast<std::size_t>(design.numCells()), 0);
      for (const int r : ranks) {
        focus[static_cast<std::size_t>(group[static_cast<std::size_t>(r)])] =
            1;
      }
      for (int extra = static_cast<int>(rng() % 4); extra > 0; --extra) {
        focus[rng() % focus.size()] = 1;
      }

      const auto expected = sortAndSliceChunks(design, config, focus);
      ASSERT_EQ(expected, focusedMatchingChunks(state, config, focus))
          << "seed " << seed << " trial " << trial;

      Design reference = design;
      Design ranked = design;
      PlacementState referenceState(reference);
      PlacementState rankedState(ranked);
      const MaxDispStats want =
          matchChunks(referenceState, config, expected);
      const MaxDispStats got =
          optimizeMaxDisplacementFocused(rankedState, config, focus);
      EXPECT_EQ(want.groups, got.groups);
      EXPECT_EQ(want.cellsConsidered, got.cellsConsidered);
      EXPECT_EQ(want.cellsMoved, got.cellsMoved);
      EXPECT_EQ(placementHash(reference), placementHash(ranked))
          << "seed " << seed << " trial " << trial;
    }
  }
  EXPECT_GT(sameChunk, 0);
  EXPECT_GT(adjacentChunks, 0);
  EXPECT_GT(lastChunk, 0);
  EXPECT_GT(droppedTail, 0);
}

}  // namespace
}  // namespace mclg
