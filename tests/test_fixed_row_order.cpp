// Fixed-row-&-order MCF tests (paper §3.3): hand instances vs brute force,
// order/boundary preservation, and the max-displacement extension (§3.3.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/mcfopt/fixed_row_order.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "legal/refine/feasible_range.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::smallDesign;

FixedRowOrderConfig totalDispConfig() {
  FixedRowOrderConfig config;
  config.contestWeights = false;
  config.routability = false;
  config.maxDispWeight = 0.0;
  return config;
}

TEST(FixedRowOrder, SingleCellMovesToGp) {
  Design d = smallDesign();
  const CellId c = addCell(d, 0, 20.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c, 5, 4);
  const auto stats = optimizeFixedRowOrder(state, segments, totalDispConfig());
  EXPECT_EQ(stats.cellsMoved, 1);
  EXPECT_EQ(d.cells[c].x, 20);
}

TEST(FixedRowOrder, TwoCellsShareOptimalSpot) {
  Design d = smallDesign();
  // Both want x = 20; widths 2 -> optimal packs them around 20.
  const CellId a = addCell(d, 0, 20.0, 4.0);
  const CellId b = addCell(d, 0, 20.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(a, 5, 4);
  state.place(b, 9, 4);
  optimizeFixedRowOrder(state, segments, totalDispConfig());
  // Order preserved (a left of b), contiguous around 20: any packing with
  // a.x in [18, 20] and b.x = a.x + 2 achieves total 2 sites.
  EXPECT_LT(d.cells[a].x, d.cells[b].x);
  EXPECT_EQ(d.cells[b].x - d.cells[a].x, 2);
  const double total = std::abs(d.cells[a].x - 20.0) +
                       std::abs(d.cells[b].x - 20.0);
  EXPECT_DOUBLE_EQ(total, 2.0);
  EXPECT_TRUE(checkLegality(d, segments).legal());
}

TEST(FixedRowOrder, RespectsSegmentBoundaries) {
  Design d = smallDesign();
  testing::addFixed(d, 2, 20, 3);  // blockage at x 20-24, rows 3-5
  const CellId c = addCell(d, 0, 30.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c, 5, 4);  // left of the blockage; GP on the right side
  optimizeFixedRowOrder(state, segments, totalDispConfig());
  // Cannot jump the blockage (fixed row, same segment): clamps at x = 18.
  EXPECT_EQ(d.cells[c].x, 18);
  EXPECT_TRUE(checkLegality(d, segments).legal());
}

TEST(FixedRowOrder, MultiRowNeighborConstraintHolds) {
  Design d = smallDesign();
  const CellId dbl = addCell(d, 1, 20.0, 4.0);   // 3x2 rows 4-5
  const CellId top = addCell(d, 0, 18.0, 5.0);   // 2x1 row 5, left of dbl
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(top, 10, 5);
  state.place(dbl, 13, 4);
  optimizeFixedRowOrder(state, segments, totalDispConfig());
  EXPECT_TRUE(checkLegality(d, segments).legal());
  // Order in row 5 preserved.
  EXPECT_LE(d.cells[top].x + 2, d.cells[dbl].x);
  // Both should reach their GPs exactly (no conflict: 18+2 <= 20).
  EXPECT_EQ(d.cells[top].x, 18);
  EXPECT_EQ(d.cells[dbl].x, 20);
}

TEST(FixedRowOrder, EdgeSpacingKeptBetweenNeighbors) {
  Design d = smallDesign();
  d.numEdgeClasses = 2;
  d.edgeSpacingTable = {0, 0, 0, 3};
  d.types[0].leftEdge = 1;
  d.types[0].rightEdge = 1;
  const CellId a = addCell(d, 0, 20.0, 4.0);
  const CellId b = addCell(d, 0, 20.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(a, 2, 4);
  state.place(b, 10, 4);
  optimizeFixedRowOrder(state, segments, totalDispConfig());
  EXPECT_GE(d.cells[b].x - (d.cells[a].x + 2), 3);
  EXPECT_EQ(countEdgeSpacingViolations(d), 0);
}

/// Brute-force reference for small chains in one row: enumerate all integer
/// placements preserving order and bounds; compare the optimal total
/// x-displacement with the MCF result.
TEST(FixedRowOrder, MatchesBruteForceOnRandomChains) {
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    Design d = smallDesign();
    d.numSitesX = 16;
    const int n = 2 + static_cast<int>(rng.uniformInt(0, 1));
    std::vector<CellId> ids;
    std::vector<std::int64_t> placedX;
    std::int64_t cursor = 0;
    for (int i = 0; i < n; ++i) {
      const CellId c = addCell(d, 0, rng.uniformReal(0, 14), 4.0);
      ids.push_back(c);
      cursor += rng.uniformInt(0, 3);
      if (cursor > 16 - 2 * (n - i)) cursor = 16 - 2 * (n - i);
      placedX.push_back(cursor);
      cursor += 2;
    }
    SegmentMap segments(d);
    PlacementState state(d);
    for (int i = 0; i < n; ++i) {
      state.place(ids[static_cast<std::size_t>(i)],
                  placedX[static_cast<std::size_t>(i)], 4);
    }
    const auto stats =
        optimizeFixedRowOrder(state, segments, totalDispConfig());

    // Brute force (n <= 3, width 2, sites 16).
    double best = 1e18;
    std::vector<std::int64_t> xs(static_cast<std::size_t>(n), 0);
    std::function<void(int, std::int64_t)> rec = [&](int i, std::int64_t lo) {
      if (i == n) {
        double total = 0;
        for (int k = 0; k < n; ++k) {
          // Round GP as the optimizer does, for an apples-to-apples bound.
          total += std::abs(
              static_cast<double>(xs[static_cast<std::size_t>(k)]) -
              std::llround(d.cells[ids[static_cast<std::size_t>(k)]].gpX));
        }
        best = std::min(best, total);
        return;
      }
      for (std::int64_t x = lo; x + 2 * (n - i) <= 16; ++x) {
        xs[static_cast<std::size_t>(i)] = x;
        rec(i + 1, x + 2);
      }
    };
    rec(0, 0);

    double got = 0;
    for (int k = 0; k < n; ++k) {
      got += std::abs(
          static_cast<double>(d.cells[ids[static_cast<std::size_t>(k)]].x) -
          std::llround(d.cells[ids[static_cast<std::size_t>(k)]].gpX));
    }
    EXPECT_NEAR(got, best, 1e-9) << "trial " << trial;
    (void)stats;
  }
}

TEST(FixedRowOrder, ObjectiveNeverIncreases) {
  GenSpec spec;
  spec.cellsPerHeight = {400, 60, 20, 0};
  spec.density = 0.7;
  spec.seed = 32;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglLegalizer legalizer(state, segments, {});
  ASSERT_EQ(legalizer.run().failed, 0);
  const auto stats = optimizeFixedRowOrder(state, segments, totalDispConfig());
  EXPECT_LE(stats.objectiveAfter, stats.objectiveBefore + 1e-6);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(FixedRowOrder, MaxDispExtensionTradesAvgForMax) {
  GenSpec spec;
  spec.cellsPerHeight = {400, 40, 0, 0};
  spec.density = 0.8;
  spec.seed = 33;
  Design a = generate(spec);
  Design b = generate(spec);
  for (Design* design : {&a, &b}) {
    SegmentMap segments(*design);
    PlacementState state(*design);
    MglLegalizer legalizer(state, segments, {});
    ASSERT_EQ(legalizer.run().failed, 0);
    FixedRowOrderConfig config = totalDispConfig();
    if (design == &b) config.maxDispWeight = 50.0;
    optimizeFixedRowOrder(state, segments, config);
    EXPECT_TRUE(checkLegality(*design, segments).legal());
  }
  const auto statsA = displacementStats(a);
  const auto statsB = displacementStats(b);
  // With a heavy n0, the max-displacement term cannot be worse.
  EXPECT_LE(statsB.maximum, statsA.maximum + 1e-9);
}

// §3.3.1: the n0 term pulls the maximum-displaced cell home even when the
// plain weighted objective refuses. Setup: double-height A (Eq. 2 weight
// 0.25 here) displaced 20 sites left of its GP, blocked by two singles
// (weight 0.25 each, sitting at their GPs) — moving the chain right *costs*
// 0.25/site in the plain objective, so with n0 = 0 A stays put. A far
// right-displaced double Z, clamped between blockages, pins δ+ so the
// extension gains a full n0 per site and overrules the plain term.
TEST(FixedRowOrder, MaxDispExtensionPullsMaxCellHome) {
  auto build = [](Design& d, SegmentMap*& segments, PlacementState*& state,
                  CellId ids[4]) {
    d = smallDesign();
    d.numSitesX = 60;
    ids[0] = addCell(d, 1, 20.0, 0.0);  // A: double 3x2, GP x=20
    ids[1] = addCell(d, 0, 3.0, 0.0);   // b: single at its GP, row 0
    ids[2] = addCell(d, 0, 3.0, 1.0);   // c: single at its GP, row 1
    ids[3] = addCell(d, 1, 0.0, 4.0);   // Z: double, right-displaced ~40
    testing::addFixed(d, 0, 38, 4);     // clamp Z between blockages
    testing::addFixed(d, 0, 38, 5);
    testing::addFixed(d, 0, 44, 4);
    testing::addFixed(d, 0, 44, 5);
    segments = new SegmentMap(d);
    state = new PlacementState(d);
    state->place(ids[0], 0, 0);
    state->place(ids[1], 3, 0);
    state->place(ids[2], 3, 1);
    state->place(ids[3], 41, 4);
  };

  for (const double n0 : {0.0, 50.0}) {
    Design d;
    SegmentMap* segments = nullptr;
    PlacementState* state = nullptr;
    CellId ids[4];
    build(d, segments, state, ids);
    FixedRowOrderConfig config;
    config.contestWeights = true;
    config.routability = false;
    config.maxDispWeight = n0;
    optimizeFixedRowOrder(*state, *segments, config);
    EXPECT_TRUE(checkLegality(d, *segments).legal());
    if (n0 == 0.0) {
      EXPECT_EQ(d.cells[ids[0]].x, 0) << "plain objective must not move A";
    } else {
      EXPECT_EQ(d.cells[ids[0]].x, 20) << "extension must pull A to its GP";
      EXPECT_GE(d.cells[ids[1]].x, 23);  // pushed chain keeps order+width
    }
    delete state;
    delete segments;
  }
}

TEST(FixedRowOrder, RoutabilityRangesRespected) {
  GenSpec spec;
  spec.cellsPerHeight = {300, 30, 0, 0};
  spec.density = 0.6;
  spec.seed = 34;
  Design design = generate(spec);
  SegmentMap segments(design);
  PlacementState state(design);
  MglConfig mglConfig;
  mglConfig.insertion.routability = true;
  MglLegalizer legalizer(state, segments, mglConfig);
  ASSERT_EQ(legalizer.run().failed, 0);
  const auto pinsBefore = countPinViolations(design);
  FixedRowOrderConfig config;
  config.contestWeights = true;
  config.routability = true;
  optimizeFixedRowOrder(state, segments, config);
  const auto pinsAfter = countPinViolations(design);
  // §3.4: the feasible ranges prevent new pin violations.
  EXPECT_LE(pinsAfter.total(), pinsBefore.total());
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

// §3.3 point (1): the compact m+1-node network and the MrDP-style 3m+2-node
// network are the same LP — identical optimal objective on random designs.
TEST(FixedRowOrder, MrdpStyleNetworkSameOptimum) {
  for (const std::uint64_t seed : {81, 82, 83}) {
    GenSpec spec;
    spec.cellsPerHeight = {300, 40, 10, 0};
    spec.density = 0.65;
    spec.seed = seed;
    Design a = generate(spec);
    Design b = generate(spec);
    double objA = 0.0, objB = 0.0;
    int nodesA = 0, nodesB = 0, arcsA = 0, arcsB = 0;
    for (Design* design : {&a, &b}) {
      SegmentMap segments(*design);
      PlacementState state(*design);
      MglLegalizer legalizer(state, segments, {});
      ASSERT_EQ(legalizer.run().failed, 0);
      FixedRowOrderConfig config;
      config.contestWeights = true;
      config.routability = true;
      config.mrdpStyleNetwork = (design == &b);
      const auto net = buildFixedRowOrderNetwork(state, segments, config);
      (design == &a ? nodesA : nodesB) = net.problem.numNodes();
      (design == &a ? arcsA : arcsB) = net.problem.numArcs();
      const auto stats = optimizeFixedRowOrder(state, segments, config);
      (design == &a ? objA : objB) = stats.objectiveAfter;
      EXPECT_TRUE(checkLegality(*design, segments).legal());
    }
    EXPECT_NEAR(objA, objB, 1e-6) << "seed " << seed;
    // The paper's node/arc counts: m+1 (+2 for the n0 extension) vs 3m+2.
    EXPECT_GT(nodesB, 2 * nodesA);
    EXPECT_GT(arcsB, arcsA);
  }
}

// The paper's Fig. 5 toy: two single-row cells and one double-row cell.
// Check the network has exactly the advertised size — m+1 nodes and
// 2m + |C_L| + |C_R| + |E| arcs (C_L = C_R = C in routability mode), plus
// v_p/v_n and their arcs when the §3.3.1 extension is on.
TEST(FixedRowOrder, Fig5ToyNetworkStructure) {
  Design d = smallDesign();
  const CellId c1 = addCell(d, 0, 2.0, 0.0);   // single, row 0
  const CellId c2 = addCell(d, 0, 2.0, 1.0);   // single, row 1
  const CellId c3 = addCell(d, 1, 8.0, 0.0);   // double, rows 0-1
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c1, 2, 0);
  state.place(c2, 2, 1);
  state.place(c3, 8, 0);
  // E: c1 left of c3 (row 0), c2 left of c3 (row 1) -> |E| = 2.
  FixedRowOrderConfig config;
  config.contestWeights = false;
  config.routability = false;  // no rails in this design anyway
  config.maxDispWeight = 0.0;
  {
    const auto net = buildFixedRowOrderNetwork(state, segments, config);
    EXPECT_EQ(net.problem.numNodes(), 3 + 1);          // m + v_z
    EXPECT_EQ(net.problem.numArcs(), 4 * 3 + 2);       // 2m + 2m(l,r) + |E|
  }
  {
    FixedRowOrderConfig ext = config;
    ext.maxDispWeight = 4.0;
    const auto net = buildFixedRowOrderNetwork(state, segments, ext);
    EXPECT_EQ(net.problem.numNodes(), 3 + 1 + 2);      // + v_p, v_n
    EXPECT_EQ(net.problem.numArcs(), 4 * 3 + 2 + 2 * 3 + 2);
  }
  // And solving the toy moves every cell to its GP (no conflicts).
  optimizeFixedRowOrder(state, segments, config);
  EXPECT_EQ(d.cells[c1].x, 2);
  EXPECT_EQ(d.cells[c2].x, 2);
  EXPECT_EQ(d.cells[c3].x, 8);
}

TEST(FixedRowOrder, ComponentsMatchNeighborGraph) {
  // fixedRowOrderComponents groups cells by runs of rows; check it against
  // a union-find over the explicit neighbor pairs, for whole components
  // and for a subset of cells. Single-height designs have one component
  // per non-empty row; mixed heights link rows.
  for (const int tall : {0, 40}) {
    GenSpec spec;
    spec.cellsPerHeight = {300, tall, tall / 4, 0};
    spec.density = 0.5;
    spec.numFences = 2;
    spec.seed = 71;
    Design design = generate(spec);
    SegmentMap segments(design);
    PlacementState state(design);
    MglLegalizer legalizer(state, segments, {});
    ASSERT_EQ(legalizer.run().failed, 0);

    std::vector<CellId> parent(static_cast<std::size_t>(design.numCells()));
    for (CellId c = 0; c < design.numCells(); ++c) parent[c] = c;
    const auto find = [&parent](CellId c) {
      while (parent[c] != c) c = parent[c] = parent[parent[c]];
      return c;
    };
    for (std::int64_t y = 0; y < design.numRows; ++y) {
      CellId prev = kInvalidCell;
      for (const auto& [x, c] : state.rowCells(y)) {
        (void)x;
        if (prev != kInvalidCell) parent[find(prev)] = find(c);
        prev = c;
      }
    }
    std::vector<CellId> placed;  // the placed movable cells: whole components
    for (CellId c = 0; c < design.numCells(); ++c) {
      if (!design.cells[c].fixed && design.cells[c].placed) placed.push_back(c);
    }
    std::vector<CellId> subset;  // every third cell, placed or not
    for (CellId c = 0; c < design.numCells(); c += 3) subset.push_back(c);
    for (const std::vector<CellId>* cells : {&placed, &subset}) {
      std::map<CellId, std::vector<CellId>> byRoot;  // root -> ascending ids
      for (const CellId c : *cells) {
        const Cell& cell = design.cells[c];
        if (cell.fixed || !cell.placed) continue;
        byRoot[find(c)].push_back(c);
      }
      std::vector<std::vector<CellId>> expected;
      for (auto& [root, members] : byRoot) expected.push_back(members);
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(expected, fixedRowOrderComponents(state, *cells))
          << "tall cells " << tall;
      if (tall == 0 && cells == &placed) {
        EXPECT_GT(expected.size(), 1u);
      }
    }
  }
}

TEST(FeasibleRange, SegmentOnly) {
  Design d = smallDesign();
  testing::addFixed(d, 2, 20, 3);
  const CellId c = addCell(d, 0, 5.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c, 5, 4);
  const Interval range = feasibleRange(d, segments, c, /*routability=*/nullptr);
  EXPECT_EQ(range.lo, 0);
  EXPECT_EQ(range.hi, 19);  // left edge max = 18, half-open 19
}

TEST(FeasibleRange, VerticalRailClipsRange) {
  Design d = smallDesign();
  d.types[0].pins.push_back({2, {0, 2, 2, 4}});  // M2 pin at cell left
  d.vRails.push_back({3, 20 * 8, 20 * 8 + 2});   // M3 stripe at site 20
  const CellId c = addCell(d, 0, 5.0, 4.0);
  SegmentMap segments(d);
  PlacementState state(d);
  state.place(c, 5, 4);
  const ForbiddenXIndex forbidden(d);
  const Interval range = feasibleRange(d, segments, c, &forbidden);
  // The stripe forbids x where [8x, 8x+2) overlaps [160, 162): x = 20.
  EXPECT_LE(range.hi - 1, 19);
  EXPECT_TRUE(range.contains(5));
}

TEST(FeasibleRange, IndexMatchesDirectForbiddenIntervals) {
  // The per-(type, orientation) index must reproduce the checkers' rail
  // intervals exactly, and its unmerged IO-pin intervals must merge to the
  // checkers' ones, for every type at every bottom row. (feasibleRange's
  // clip against them is checked by MatchesMergedIntervalScanOnEveryPlacedCell.)
  GenSpec spec;
  spec.cellsPerHeight = {300, 60, 20, 10};
  spec.numIoPins = 400;
  spec.seed = 11;
  const Design d = generate(spec);
  ASSERT_FALSE(d.ioPins.empty());
  const ForbiddenXIndex index(d);
  int ioHits = 0;
  for (TypeId t = 0; t < d.numTypes(); ++t) {
    for (std::int64_t y = 0; y < d.numRows; ++y) {
      EXPECT_EQ(verticalRailForbiddenX(d, t, y), index.rails(t));
      const std::vector<Interval> io = ioPinForbiddenX(d, t, y);
      std::vector<Interval> merged;
      const auto pieces = index.ioIntervals(t, y);
      std::vector<Interval> sorted(pieces.begin(), pieces.end());
      std::sort(sorted.begin(), sorted.end(),
                [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
      for (const Interval& iv : sorted) {
        if (!merged.empty() && iv.lo <= merged.back().hi) {
          merged.back().hi = std::max(merged.back().hi, iv.hi);
        } else {
          merged.push_back(iv);
        }
      }
      ASSERT_EQ(io, merged) << "type " << t << " row " << y;
      ioHits += io.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(ioHits, 0);
}

TEST(FeasibleRange, IoOverlapTableMatchesCountIoOverlaps) {
  // The IO-overlap table MGL prices candidates with must count exactly
  // what countIoOverlaps counts, for every type, bottom row and site.
  GenSpec spec;
  spec.cellsPerHeight = {200, 40, 15, 8};
  spec.numIoPins = 400;
  spec.seed = 12;
  const Design d = generate(spec);
  ASSERT_FALSE(d.ioPins.empty());
  const ForbiddenXIndex index(d);
  long long overlapping = 0;
  for (TypeId t = 0; t < d.numTypes(); ++t) {
    for (std::int64_t y = 0; y < d.numRows; ++y) {
      for (std::int64_t x = 0; x < d.numSitesX; ++x) {
        const int want = countIoOverlaps(d, t, x, y);
        ASSERT_EQ(index.ioOverlaps(t, x, y), want)
            << "type " << t << " row " << y << " site " << x;
        overlapping += want > 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(overlapping, 0);
}

/// `mclg_cli generate --cells N --density D --fences 2 --seed S` (P/G
/// rails, IO pins and pin shapes on), placed by MGL with routability on or
/// off.
Design placedDesign(int cells, double density, std::uint64_t seed,
                    bool routableMgl = true) {
  GenSpec spec;
  spec.cellsPerHeight = {cells * 8 / 10, cells * 12 / 100, cells * 5 / 100,
                         cells * 3 / 100};
  spec.density = density;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = seed;
  Design d = generate(spec);
  SegmentMap segments(d);
  PlacementState state(d);
  MglConfig config;
  config.insertion.routability = routableMgl;
  MglLegalizer(state, segments, config).run();
  return d;
}

std::uint64_t fnv(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffU;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

/// The node count, then every arc's (src, dst, cap, cost) in order.
std::uint64_t networkDigest(std::uint64_t digest, const FroNetwork& net) {
  digest = fnv(digest, static_cast<std::uint64_t>(net.problem.numNodes()));
  for (const McfProblem::Arc& arc : net.problem.arcs()) {
    digest = fnv(digest, static_cast<std::uint64_t>(arc.src));
    digest = fnv(digest, static_cast<std::uint64_t>(arc.dst));
    digest = fnv(digest, static_cast<std::uint64_t>(arc.cap));
    digest = fnv(digest, static_cast<std::uint64_t>(arc.cost));
  }
  return digest;
}

/// Digests of a placed design's stage-3 networks: the full design's (with
/// the §3.3.1 term) and those the ECO driver builds — for each of 30 seeded
/// three-cell edits, the cells within kEcoChainHalo chain positions of an
/// edited cell in its rows, solved per component without the §3.3.1 term
/// through one routability index.
std::pair<std::uint64_t, std::uint64_t> stage3Digests(Design d) {
  SegmentMap segments(d);
  const PlacementState state(d);
  FixedRowOrderConfig config;
  const std::uint64_t full = networkDigest(
      0xcbf29ce484222325ULL, buildFixedRowOrderNetwork(state, segments, config));

  config.maxDispWeight = 0.0;
  const ForbiddenXIndex forbidden(d);
  std::vector<CellId> placed;
  for (CellId c = 0; c < d.numCells(); ++c) {
    if (!d.cells[c].fixed && d.cells[c].placed) placed.push_back(c);
  }
  std::mt19937_64 rng(5);
  std::uint64_t subsets = 0xcbf29ce484222325ULL;
  for (int edit = 0; edit < 30; ++edit) {
    std::vector<CellId> edited;
    for (int i = 0; i < 3; ++i) edited.push_back(placed[rng() % placed.size()]);
    std::sort(edited.begin(), edited.end());
    std::vector<std::int64_t> rows;
    for (const CellId c : edited) {
      for (std::int64_t y = d.cells[c].y; y < d.cells[c].y + d.heightOf(c);
           ++y) {
        rows.push_back(y);
      }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    std::vector<CellId> kept;
    for (const std::int64_t y : rows) {
      std::vector<CellId> row;
      for (const auto& [x, c] : state.rowCells(y)) row.push_back(c);
      const int n = static_cast<int>(row.size());
      for (int j = 0; j < n; ++j) {
        if (!std::binary_search(edited.begin(), edited.end(), row[j])) {
          continue;
        }
        for (int t = std::max(0, j - kEcoChainHalo);
             t <= std::min(n - 1, j + kEcoChainHalo); ++t) {
          kept.push_back(row[t]);
        }
      }
    }
    for (const auto& subset : fixedRowOrderComponents(state, kept)) {
      subsets = networkDigest(
          subsets, buildFixedRowOrderNetwork(state, segments, config, subset,
                                             &forbidden));
    }
  }
  return {full, subsets};
}

// The stage-3 networks of a 2k and an 8k generated design with rails, IO
// pins and two fences — node count and every arc in order, for the full
// design and ECO-style kept-cell subsets — recorded before the network
// build read the search index's IO table and packed its row keys. A build
// change must leave every node, arc and range where it was.
TEST(FixedRowOrder, NetworkDigestsArePinned) {
  const auto small = stage3Digests(placedDesign(2000, 0.9, 3));
  EXPECT_EQ(0x18d111414a01f44dULL, small.first);
  EXPECT_EQ(0xbcf971057964e396ULL, small.second);
  const auto large = stage3Digests(placedDesign(8000, 0.55, 7));
  EXPECT_EQ(0xf92af42f7ec23884ULL, large.first);
  EXPECT_EQ(0x5dece08cc965dbd6ULL, large.second);
}

/// feasibleRange as it clipped before it read the search index: against
/// the checkers' merged rail and IO-pin intervals, scanned in x order.
Interval mergedScanFeasibleRange(const Design& design,
                                 const SegmentMap& segments, CellId c) {
  const Cell& cell = design.cells[c];
  const int w = design.widthOf(c);
  const Interval seg = segments.slideRange(cell.y, design.heightOf(c), cell.x,
                                           w, cell.fence);
  std::int64_t lo = seg.lo;
  std::int64_t hi = seg.hi - w;
  if (hi < lo) return {cell.x, cell.x + 1};
  const auto clip = [&](const std::vector<Interval>& forbidden) {
    for (const Interval& iv : forbidden) {
      if (iv.hi <= cell.x) {
        lo = std::max(lo, iv.hi);
      } else if (iv.lo > cell.x) {
        hi = std::min(hi, iv.lo - 1);
        break;
      } else {
        return false;
      }
    }
    return true;
  };
  if (!clip(verticalRailForbiddenX(design, cell.type, cell.y)) ||
      !clip(ioPinForbiddenX(design, cell.type, cell.y))) {
    return {cell.x, cell.x + 1};
  }
  return {std::min(lo, cell.x), std::max(hi, cell.x) + 1};
}

// Every placed cell of designs placed with and without routability (the
// latter leaves many cells on a rail or IO-pin conflict, i.e. frozen).
TEST(FeasibleRange, MatchesMergedIntervalScanOnEveryPlacedCell) {
  int frozen = 0;
  int sliding = 0;
  for (const bool routableMgl : {true, false}) {
    for (const std::uint64_t seed : {1, 2}) {
      const Design d = placedDesign(2000, 0.9, seed, routableMgl);
      const SegmentMap segments(d);
      const ForbiddenXIndex index(d);
      for (CellId c = 0; c < d.numCells(); ++c) {
        if (d.cells[c].fixed || !d.cells[c].placed) continue;
        const Interval expected = mergedScanFeasibleRange(d, segments, c);
        ASSERT_EQ(expected, feasibleRange(d, segments, c, &index))
            << "cell " << c << " seed " << seed;
        ++(expected.hi - expected.lo == 1 ? frozen : sliding);
      }
    }
  }
  EXPECT_GT(frozen, 0);
  EXPECT_GT(sliding, 0);
}

}  // namespace
}  // namespace mclg
