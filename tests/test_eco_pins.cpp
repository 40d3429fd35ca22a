// Byte-identity pins of the resident ECO request path (ServeSession ->
// seedFromLog -> ecoRelegalize): per-request placement hashes of a seeded
// request stream on the perfbench eco_serve design, and of ECO runs whose
// stage-3 subset holds a pair that already violates soft edge spacing, the
// one case where the subset network depends on the subset cells' x. A
// speedup of the request path must keep every hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "flow/serve/serve_session.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/pipeline.hpp"
#include "parsers/simple_format.hpp"

namespace mclg {
namespace {

/// `mclg_cli generate --cells N --density D --fences 2 --seed S`.
Design cliDesign(int cells, double density, std::uint64_t seed) {
  GenSpec spec;
  spec.name = "generated";
  spec.cellsPerHeight = {cells * 8 / 10, cells * 12 / 100, cells * 5 / 100,
                         cells * 3 / 100};
  spec.density = density;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = seed;
  return generate(spec);
}

/// FNV-1a over 64-bit words: one number for a whole hash sequence.
std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffU;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

// The eco_serve stream: 3-move EcoDeltas, each move re-targeting a random
// movable cell to within 6 sites of its legal x on its legal row, every
// tenth request rolled back and the others committed.
TEST(EcoRequestPins, ServeStreamHashesArePinned) {
  const Design base = cliDesign(8000, 0.55, 7);
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "pin";
  load.designText = writeSimpleFormat(base);
  ServeResponse loaded;
  auto session = ServeSession::load(load, ServeSessionConfig{}, &loaded);
  ASSERT_NE(nullptr, session) << loaded.error;
  EXPECT_EQ(0xeb5b25213f0959e7ULL, loaded.hash);

  QueryRequest query;
  query.tenant = "pin";
  query.key = "design";
  const auto legal = readSimpleFormat(session->query(query).body);
  ASSERT_TRUE(legal.has_value());
  std::vector<std::tuple<CellId, std::int64_t, std::int64_t>> movable;
  for (CellId c = 0; c < legal->numCells(); ++c) {
    const Cell& cell = legal->cells[c];
    if (!cell.fixed) movable.emplace_back(c, cell.x, cell.y);
  }

  constexpr int kRequests = 240;
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::size_t> pick(0, movable.size() - 1);
  std::uniform_int_distribution<int> shift(-6, 6);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<std::uint64_t> checkpoints;
  for (int k = 1; k <= kRequests; ++k) {
    EcoDeltaRequest eco;
    eco.id = static_cast<std::uint64_t>(2 * k);
    eco.tenant = "pin";
    for (int i = 0; i < 3; ++i) {
      const auto& [cell, x, y] = movable[pick(rng)];
      EcoOp op;
      op.cell = cell;
      op.gpX = static_cast<double>(
          std::clamp<std::int64_t>(x + shift(rng), 0, legal->numSitesX - 1));
      op.gpY = static_cast<double>(y);
      eco.ops.push_back(op);
    }
    const ServeResponse delta = session->applyDelta(eco, Deadline());
    ASSERT_TRUE(serveStatusOk(delta.status)) << "request " << k << ": "
                                             << delta.error;
    TenantRequest finish;
    finish.id = eco.id + 1;
    finish.tenant = "pin";
    const ServeResponse done = k % 10 == 0 ? session->rollback(finish)
                                           : session->commit(finish);
    ASSERT_TRUE(serveStatusOk(done.status)) << "request " << k;
    digest = fold(fold(digest, delta.hash), done.hash);
    if (k % 40 == 0) checkpoints.push_back(delta.hash);
  }
  const std::vector<std::uint64_t> expected = {
      0x9840db00dbc15486ULL, 0xc8ab6b2e87ba526fULL, 0x45f8e7abebaf4858ULL,
      0xbd8d7e412e91a028ULL, 0x8b266acccbb6ced4ULL, 0x3f4928f949a188daULL};
  EXPECT_EQ(expected, checkpoints);
  EXPECT_EQ(0x34b41852318ef1d3ULL, digest);
}

/// A legal placement of `design` with one soft edge-spacing violation
/// injected per qualifying row pair: the right cell of each of the first
/// `pairs` abutting single-row pairs whose spacing rule is positive slides
/// left to one site short of the rule. Returns the cell right of each
/// shifted cell's right neighbour — a clean cell two chain positions away,
/// whose GP edit puts the violating pair into the ECO stage-3 subset.
std::vector<CellId> injectSpacingViolations(Design& design, int pairs) {
  SegmentMap segments(design);
  std::vector<CellId> edits;
  PlacementState state(design);
  for (std::int64_t y = 0;
       y < design.numRows && static_cast<int>(edits.size()) < pairs; ++y) {
    std::vector<std::pair<std::int64_t, CellId>> row(state.rowCells(y).begin(),
                                                     state.rowCells(y).end());
    for (std::size_t j = 1; j + 2 < row.size(); ++j) {
      const CellId a = row[j - 1].second;
      const CellId b = row[j].second;
      const Cell& ca = design.cells[a];
      const Cell& cb = design.cells[b];
      const int rule = design.spacingBetween(a, b);
      if (ca.fixed || cb.fixed || rule <= 0 || design.heightOf(a) != 1 ||
          design.heightOf(b) != 1 || ca.fence != cb.fence) {
        continue;
      }
      const std::int64_t target = ca.x + design.widthOf(a) + rule - 1;
      const Interval segment =
          segments.slideRange(y, 1, target, design.widthOf(b), cb.fence);
      if (target >= cb.x || segment.hi <= segment.lo) continue;
      state.remove(b);
      state.place(b, target, y);
      edits.push_back(row[j + 2].second);
      break;
    }
  }
  return edits;
}

// Stage 3's separation clamp (sep = min(rule, current distance)) makes the
// subset network depend on the subset cells' x only for a pair that
// already sits closer than its rule; a second solve of such a subset could
// only pick another optimum of equal cost, so stage 3 solves it once.
TEST(EcoRequestPins, SoftSpacingViolationHashesArePinned) {
  Design snapshot = cliDesign(2000, 0.55, 1);
  {
    SegmentMap segments(snapshot);
    PlacementState state(snapshot);
    legalize(state, segments, PipelineConfig::contest());
  }
  const std::vector<CellId> edits = injectSpacingViolations(snapshot, 4);
  ASSERT_EQ(4u, edits.size());
  {
    SegmentMap segments(snapshot);
    ASSERT_TRUE(checkLegality(snapshot, segments).legal());
  }

  std::vector<std::uint64_t> hashes;
  for (const CellId cell : edits) {
    Design edited = snapshot;
    edited.cells[cell].gpX =
        std::min<double>(edited.cells[cell].gpX + 5.0,
                         static_cast<double>(edited.numSitesX - 1));
    edited.invalidateCaches();
    SegmentMap segments(edited);
    PlacementState state(edited);
    EcoConfig config;
    config.pipeline = PipelineConfig::contest();
    const EcoStats stats = ecoRelegalize(state, segments, snapshot, config);
    EXPECT_FALSE(stats.usedFullRun) << stats.fallbackReason;
    EXPECT_EQ(0, checkLegality(edited, segments).overlaps);
    hashes.push_back(placementHash(edited));
  }
  const std::vector<std::uint64_t> expected = {
      0x0b0b62c2e4f1c3a8ULL, 0xe98f5aa973e7bef1ULL, 0x8c82f7b0e1ca06fcULL,
      0xd371ea4726e9dd89ULL};
  EXPECT_EQ(expected, hashes);
}

}  // namespace
}  // namespace mclg
