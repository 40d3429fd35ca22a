// Baseline legalizer tests: each produces a legal placement, and the
// quality ordering matches the paper's Tables 1-2 shape (ours <= MLL,
// ordered methods, Tetris on total displacement; champion proxy accrues
// routability violations that ours avoids).
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

GenSpec table2Spec(std::uint64_t seed, double density = 0.6) {
  GenSpec spec;
  spec.cellsPerHeight = {900, 100, 0, 0};
  spec.density = density;
  spec.withRoutability = false;
  spec.withNets = false;
  spec.numEdgeClasses = 1;
  spec.seed = seed;
  return spec;
}

double runBaseline(Design& design,
                   BaselineStats (*fn)(PlacementState&, const SegmentMap&),
                   bool* legal) {
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats = fn(state, segments);
  EXPECT_EQ(stats.failed, 0);
  *legal = checkLegality(design, segments).legal();
  return displacementStats(design).totalSites;
}

TEST(Baselines, TetrisLegal) {
  Design design = generate(table2Spec(51));
  bool legal = false;
  runBaseline(design, legalizeTetris, &legal);
  EXPECT_TRUE(legal);
}

TEST(Baselines, TetrisHandlesFencesAndParity) {
  GenSpec spec = table2Spec(52);
  spec.numFences = 2;
  Design design = generate(spec);
  bool legal = false;
  runBaseline(design, legalizeTetris, &legal);
  EXPECT_TRUE(legal);
}

TEST(Baselines, AbacusMultiLegal) {
  Design design = generate(table2Spec(53));
  bool legal = false;
  runBaseline(design, legalizeAbacusMulti, &legal);
  EXPECT_TRUE(legal);
}

TEST(Baselines, OrderedMcfLegalAndNotWorseThanAbacus) {
  Design abacus = generate(table2Spec(54));
  Design ordered = generate(table2Spec(54));
  bool legalA = false, legalO = false;
  const double dispAbacus = runBaseline(abacus, legalizeAbacusMulti, &legalA);
  const double dispOrdered = runBaseline(ordered, legalizeOrderedMcf, &legalO);
  EXPECT_TRUE(legalA);
  EXPECT_TRUE(legalO);
  EXPECT_LE(dispOrdered, dispAbacus + 1e-6);
}

TEST(Baselines, MllLegal) {
  Design design = generate(table2Spec(55));
  SegmentMap segments(design);
  PlacementState state(design);
  const auto stats = legalizeMll(state, segments, /*contestWeights=*/false);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Baselines, OursBeatsBaselinesOnTotalDisplacement) {
  // The Table 2 headline: MGL + fixed-row-order < MLL, ordered, Tetris.
  const auto run = [](std::uint64_t seed, double density) {
    struct Result {
      double ours, mll, ordered, tetris;
    } r{};
    {
      Design d = generate(table2Spec(seed, density));
      SegmentMap segments(d);
      PlacementState state(d);
      legalize(state, segments, PipelineConfig::totalDisplacement());
      r.ours = displacementStats(d).totalSites;
    }
    {
      Design d = generate(table2Spec(seed, density));
      SegmentMap segments(d);
      PlacementState state(d);
      legalizeMll(state, segments, false);
      r.mll = displacementStats(d).totalSites;
    }
    {
      Design d = generate(table2Spec(seed, density));
      bool legal = false;
      r.ordered = runBaseline(d, legalizeOrderedMcf, &legal);
    }
    {
      Design d = generate(table2Spec(seed, density));
      bool legal = false;
      r.tetris = runBaseline(d, legalizeTetris, &legal);
    }
    return r;
  };
  const auto r = run(56, 0.75);
  EXPECT_LT(r.ours, r.mll * 1.02);      // at least competitive with MLL
  EXPECT_LT(r.ours, r.ordered * 1.02);  // and with the ordered proxy
  EXPECT_LT(r.ours, r.tetris);          // and clearly better than Tetris
}

TEST(Baselines, ChampionProxyAccruesRoutabilityViolations) {
  GenSpec spec;
  spec.cellsPerHeight = {700, 80, 30, 0};
  spec.density = 0.6;
  spec.numFences = 1;
  spec.seed = 57;
  Design champ = generate(spec);
  Design ours = generate(spec);
  {
    SegmentMap segments(champ);
    PlacementState state(champ);
    const auto stats = legalizeChampionProxy(state, segments);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_TRUE(checkLegality(champ, segments).legal());
  }
  {
    SegmentMap segments(ours);
    PlacementState state(ours);
    legalize(state, segments, PipelineConfig::contest());
  }
  const int champEdges = countEdgeSpacingViolations(champ);
  const int oursEdges = countEdgeSpacingViolations(ours);
  const auto champPins = countPinViolations(champ);
  const auto oursPins = countPinViolations(ours);
  EXPECT_EQ(oursEdges, 0);          // the paper's zero-edge-violation claim
  EXPECT_GT(champEdges, 0);         // proxy ignores the spacing table
  EXPECT_LT(oursPins.total(), champPins.total());
}

TEST(Baselines, ReachEveryCoreRowFromGpOutsideTheCore) {
  // The nearest-gap walk is bounded by the core, not by the row count
  // measured from the GP row, so a GP row outside the core still reaches
  // every core row.
  const auto placeOne = [](double gpY, bool blockUpperRows,
                           BaselineStats (*fn)(PlacementState&,
                                               const SegmentMap&)) {
    Design d = testing::smallDesign();
    if (blockUpperRows) {
      for (std::int64_t y = 1; y < d.numRows; ++y) {
        for (std::int64_t x = 0; x < d.numSitesX; x += 2) {
          testing::addFixed(d, 0, x, y);
        }
      }
    }
    const CellId c = testing::addCell(d, 0, 7.3, gpY);
    SegmentMap segments(d);
    PlacementState state(d);
    const BaselineStats stats = fn(state, segments);
    EXPECT_EQ(stats.failed, 0) << "gpY " << gpY;
    EXPECT_TRUE(d.cells[c].placed) << "gpY " << gpY;
    return d.cells[c].placed ? d.cells[c].y : -1;
  };
  for (const auto fn : {legalizeTetris, legalizeAbacusMulti}) {
    EXPECT_EQ(placeOne(-15.0, false, fn), 0);
    EXPECT_EQ(placeOne(25.0, false, fn), 9);
    EXPECT_EQ(placeOne(10.0, true, fn), 0);
    EXPECT_EQ(placeOne(25.0, true, fn), 0);
  }
}

struct BaselinePin {
  const char* name;
  BaselineStats (*fn)(PlacementState&, const SegmentMap&);
  int design;
  int failed;
  std::uint64_t hash;
};

TEST(Baselines, PlacementHashesPinned) {
  // Tetris, Abacus-multi and the ordered MCF on four generated designs: a
  // sparse unfenced one and three fenced ones up to density 0.92. On the
  // fenced ones Abacus-multi's frontier jams and its nearest-gap fallback
  // places cells (33, 43 and 88 of them), and Tetris's x windows leave some
  // cells without a slot.
  const auto spec = [](int design) {
    GenSpec s;
    switch (design) {
      case 0:
        s = table2Spec(61, 0.6);
        break;
      case 1:
        s.cellsPerHeight = {700, 80, 30, 0};
        s.density = 0.75;
        s.numFences = 2;
        s.seed = 62;
        break;
      case 2:
        s.cellsPerHeight = {500, 60, 20, 10};
        s.density = 0.85;
        s.numFences = 1;
        s.seed = 63;
        break;
      default:
        s.cellsPerHeight = {500, 60, 20, 10};
        s.density = 0.92;
        s.numFences = 2;
        s.seed = 64;
        break;
    }
    return s;
  };
  const BaselinePin pins[] = {
      {"tetris", legalizeTetris, 0, 0, 0x62b87187cae4cdf6ull},
      {"abacus", legalizeAbacusMulti, 0, 0, 0x28c18c859d5a2eb3ull},
      {"ordered-mcf", legalizeOrderedMcf, 0, 0, 0x6d7916112fd31a48ull},
      {"tetris", legalizeTetris, 1, 1, 0x6d8f3fd01c391007ull},
      {"abacus", legalizeAbacusMulti, 1, 0, 0x124b29f90788aaa1ull},
      {"ordered-mcf", legalizeOrderedMcf, 1, 0, 0xfc5abc079809a4d9ull},
      {"tetris", legalizeTetris, 2, 7, 0xd7a5998943533597ull},
      {"abacus", legalizeAbacusMulti, 2, 0, 0xd20d6ffb834ae37full},
      {"ordered-mcf", legalizeOrderedMcf, 2, 0, 0xc3046c08683ecbd5ull},
      {"tetris", legalizeTetris, 3, 26, 0xf1c62095a88d7023ull},
      {"abacus", legalizeAbacusMulti, 3, 5, 0x2c31c6e1e67d9238ull},
      {"ordered-mcf", legalizeOrderedMcf, 3, 5, 0x2864d05ca7e2eaedull},
  };
  for (const BaselinePin& pin : pins) {
    Design design = generate(spec(pin.design));
    SegmentMap segments(design);
    PlacementState state(design);
    const BaselineStats stats = pin.fn(state, segments);
    EXPECT_EQ(stats.failed, pin.failed) << pin.name << " design " << pin.design;
    EXPECT_EQ(placementHash(design), pin.hash)
        << pin.name << " design " << pin.design << std::hex << " 0x"
        << placementHash(design);
  }
}

}  // namespace
}  // namespace mclg
