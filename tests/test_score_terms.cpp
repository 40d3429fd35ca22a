// The kept score sums and placement hash of the resident serve session
// (eval/block_sum.hpp, eval/score_terms.hpp): the block-order sum against
// its from-scratch form under random updates, ScoreTerms against
// evaluateScore()/placementHash() after random edits, a random serve
// stream checked against a from-scratch evaluation after every step, and
// the obs counters that show a request makes no pass over the design.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/block_sum.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "eval/score_terms.hpp"
#include "flow/serve/serve_session.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/pipeline.hpp"
#include "obs/obs.hpp"
#include "parsers/simple_format.hpp"

namespace mclg {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

Design smallDesign(std::uint64_t seed, std::array<int, 4> cellsPerHeight) {
  GenSpec spec;
  spec.name = "score_terms";
  spec.cellsPerHeight = cellsPerHeight;
  spec.density = 0.6;
  spec.numFences = 2;
  spec.seed = seed;
  return generate(spec);
}

// ---- The block-order sum -----------------------------------------------------

/// Zeros of both signs, denormals, and normals over a wide range and of
/// both signs.
double randomValue(std::mt19937_64& rng) {
  const double denormMin = std::numeric_limits<double>::denorm_min();
  switch (rng() % 6) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return static_cast<double>(rng() % 1000 + 1) * denormMin *
             (rng() % 2 == 0 ? 1.0 : -1.0);
    case 3:
      return std::ldexp(static_cast<double>(rng() % (1u << 20)),
                        static_cast<int>(rng() % 80) - 40);
    default: {
      std::uniform_real_distribution<double> unit(-1.0, 1.0);
      return unit(rng) * std::pow(10.0, static_cast<double>(rng() % 7));
    }
  }
}

// A KeptSum under random sets, growth and truncation equals the from-scratch
// BlockSum of its values (zeros skipped) bit for bit after every step, and
// equals a second KeptSum whose tree was first grown to a larger capacity.
TEST(BlockSumOrder, KeptSumMatchesFromScratchAtTwoCapacities) {
  std::mt19937_64 rng(2024);
  std::vector<double> values;
  KeptSum kept;
  KeptSum wide;
  wide.resize(40 * kSumBlock);  // more leaves than `values` ever needs
  wide.resize(0);
  int grows = 0;
  int truncations = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto action = rng() % 10;
    if (action == 0 || values.empty()) {
      values.resize(values.size() + rng() % (3 * kSumBlock) + 1, 0.0);
      kept.resize(values.size());
      wide.resize(values.size());
      ++grows;
    } else if (action == 1) {
      values.resize(rng() % values.size());
      kept.resize(values.size());
      wide.resize(values.size());
      ++truncations;
    } else {
      for (auto sets = rng() % 8 + 1; sets-- > 0;) {
        const std::size_t id = rng() % values.size();
        values[id] = randomValue(rng);
        kept.set(id, values[id]);
        wide.set(id, values[id]);
      }
    }
    kept.update();
    wide.update();
    BlockSum scratch;
    for (std::size_t id = 0; id < values.size(); ++id) {
      if (values[id] != 0.0) scratch.add(id, values[id]);
    }
    ASSERT_EQ(bits(scratch.total()), bits(kept.total())) << "step " << step;
    ASSERT_EQ(bits(kept.total()), bits(wide.total())) << "step " << step;
  }
  EXPECT_GT(grows, 100);
  EXPECT_GT(truncations, 100);
}

// A max tree's kept root equals the maximum of its blocks at any capacity.
TEST(BlockSumOrder, MaxTreeKeepsTheMaximum) {
  std::mt19937_64 rng(7);
  std::vector<double> blocks(37, 0.0);
  MaxTree tree;
  tree.resize(blocks.size());
  MaxTree wide;
  wide.resize(512);
  wide.resize(blocks.size());
  std::uniform_real_distribution<double> unit(0.0, 50.0);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t b = rng() % blocks.size();
    blocks[b] = rng() % 4 == 0 ? 0.0 : unit(rng);
    tree.set(b, blocks[b]);
    wide.set(b, blocks[b]);
    double maximum = 0.0;
    for (const double v : blocks) maximum = std::max(maximum, v);
    ASSERT_EQ(bits(maximum), bits(tree.total()));
    ASSERT_EQ(bits(maximum), bits(wide.total()));
    ASSERT_EQ(bits(maximum), bits(MaxTree::of(blocks).total()));
  }
}

// ---- ScoreTerms --------------------------------------------------------------

void expectSameScore(const ScoreBreakdown& kept, const ScoreBreakdown& full,
                     const std::string& where) {
  EXPECT_EQ(bits(kept.displacement.average), bits(full.displacement.average))
      << where;
  EXPECT_EQ(bits(kept.displacement.maximum), bits(full.displacement.maximum))
      << where;
  EXPECT_EQ(bits(kept.displacement.totalSites),
            bits(full.displacement.totalSites))
      << where;
  EXPECT_EQ(bits(kept.hpwlRatio), bits(full.hpwlRatio)) << where;
  EXPECT_EQ(kept.pins.shorts, full.pins.shorts) << where;
  EXPECT_EQ(kept.pins.access, full.pins.access) << where;
  EXPECT_EQ(kept.edgeSpacing, full.edgeSpacing) << where;
  EXPECT_EQ(kept.legality.unplacedCells, full.legality.unplacedCells)
      << where;
  EXPECT_EQ(kept.legality.overlaps, full.legality.overlaps) << where;
  EXPECT_EQ(kept.legality.parityViolations, full.legality.parityViolations)
      << where;
  EXPECT_EQ(kept.legality.fenceViolations, full.legality.fenceViolations)
      << where;
  EXPECT_EQ(kept.legality.outOfCore, full.legality.outOfCore) << where;
  EXPECT_EQ(bits(kept.score), bits(full.score)) << where;
}

/// Place cell c at a random free, parity-legal spot; false when 40 tries
/// find none.
bool placeSomewhere(PlacementState& state, CellId c, std::mt19937_64& rng) {
  Design& design = state.design();
  const int w = design.widthOf(c);
  const int h = design.heightOf(c);
  for (int attempt = 0; attempt < 40; ++attempt) {
    const auto x = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(design.numSitesX - w + 1));
    const auto y = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(design.numRows - h + 1));
    if (design.parityOk(design.cells[c].type, y) &&
        state.spanEmpty(y, h, x, w)) {
      state.place(c, x, y);
      return true;
    }
  }
  return false;
}

// After every random edit — shifts, removals, placements, GP moves,
// retypes, added cells and dropped ones — refresh() of the changed cells
// leaves evaluate() equal to evaluateScore() field by field, bit for bit,
// and hash() equal to placementHash().
TEST(ScoreTermsFuzz, KeptTermsMatchFromScratchAfterEveryEdit) {
  Design design = smallDesign(5, {220, 30, 12, 8});
  SegmentMap segments(design);
  PlacementState state(design);
  legalize(state, segments, PipelineConfig::contest());
  const int baseCells = design.numCells();
  ScoreTerms terms(state, segments);
  expectSameScore(terms.evaluate(), evaluateScore(design, segments), "load");
  EXPECT_EQ(placementHash(design), terms.hash());

  std::mt19937_64 rng(99);
  const auto randomCell = [&] {
    CellId c;
    do {
      c = static_cast<CellId>(rng() % static_cast<std::uint64_t>(
                                          design.numCells()));
    } while (design.cells[c].fixed);
    return c;
  };
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int step = 0; step < 600; ++step) {
    std::vector<CellId> changed;
    const CellId c = randomCell();
    Cell& cell = design.cells[c];
    switch (rng() % 7) {
      case 0: {  // shift within the row's free span
        if (!cell.placed) break;
        const int w = design.widthOf(c);
        const auto x = static_cast<std::int64_t>(
            rng() % static_cast<std::uint64_t>(design.numSitesX - w + 1));
        bool free = true;
        for (std::int64_t y = cell.y; y < cell.y + design.heightOf(c); ++y) {
          free = free && state.rowCells(y).find(x) == state.rowCells(y).end();
        }
        if (free && state.spanEmpty(cell.y, design.heightOf(c), x, w, c)) {
          state.shiftX(c, x);
          changed.push_back(c);
        }
        break;
      }
      case 1:
        if (cell.placed) {
          state.remove(c);
          changed.push_back(c);
        }
        break;
      case 2:
        if (!cell.placed && placeSomewhere(state, c, rng)) {
          changed.push_back(c);
        }
        break;
      case 3:
        cell.gpX = unit(rng) * static_cast<double>(design.numSitesX - 1);
        cell.gpY = unit(rng) * static_cast<double>(design.numRows - 1);
        changed.push_back(c);
        break;
      case 4: {  // retype, keeping every pin a net may reference
        const TypeId type = design.cells[randomCell()].type;
        if (design.types[type].pins.size() < design.typeOf(c).pins.size()) {
          break;
        }
        const bool wasPlaced = cell.placed;
        const std::int64_t x = cell.x;
        const std::int64_t y = cell.y;
        if (wasPlaced) state.remove(c);
        design.cells[c].type = type;
        design.invalidateCaches();
        if (wasPlaced && y + design.heightOf(c) <= design.numRows &&
            x + design.widthOf(c) <= design.numSitesX &&
            design.parityOk(type, y) &&
            state.spanEmpty(y, design.heightOf(c), x, design.widthOf(c))) {
          state.place(c, x, y);
        }
        changed.push_back(c);
        break;
      }
      case 5: {  // add a copy of a movable cell, maybe placed
        Cell fresh = design.cells[randomCell()];
        fresh.placed = false;
        fresh.x = -1;
        fresh.y = -1;
        fresh.gpX = unit(rng) * static_cast<double>(design.numSitesX - 1);
        design.cells.push_back(fresh);
        design.invalidateCaches();
        const CellId added = design.numCells() - 1;
        if (rng() % 2 == 0) placeSomewhere(state, added, rng);
        changed.push_back(added);
        break;
      }
      default: {  // drop the last added cells, listed or not
        if (design.numCells() == baseCells) break;
        const int keep = baseCells + static_cast<int>(
                                         rng() % static_cast<std::uint64_t>(
                                                     design.numCells() -
                                                     baseCells));
        const bool listed = rng() % 2 == 0;
        for (CellId d = keep; d < design.numCells(); ++d) {
          if (design.cells[d].placed) state.remove(d);
          if (listed) changed.push_back(d);
        }
        design.cells.resize(static_cast<std::size_t>(keep));
        design.invalidateCaches();
        break;
      }
    }
    terms.refresh(changed);
    const std::string where = "step " + std::to_string(step);
    expectSameScore(terms.evaluate(), evaluateScore(design, segments), where);
    ASSERT_EQ(placementHash(design), terms.hash()) << where;
  }
}

// ---- The serve session -------------------------------------------------------

/// The text of `"key":value` in a JSON body (up to the next , or }).
std::string jsonField(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = body.find(needle);
  if (at == std::string::npos) return "<missing " + key + ">";
  const auto start = at + needle.size();
  return body.substr(start, body.find_first_of(",}", start) - start);
}

std::string json17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// A random serve stream — moves, resizes, adds, malformed ops, commits and
// rollbacks, some of which drop added cells. After every step the kept
// hash equals placementHash() of the tenant's design, the reported score
// equals evaluateScore() bit for bit, and an adopted EcoDelta's report
// carries evaluateScore()'s fields to the last digit.
TEST(ServeFuzz, KeptHashAndScoreMatchFromScratchAfterEveryStep) {
  const Design base = smallDesign(17, {300, 40, 15, 10});
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "fuzz";
  load.designText = writeSimpleFormat(base);
  ServeResponse loaded;
  auto session = ServeSession::load(load, ServeSessionConfig{}, &loaded);
  ASSERT_NE(nullptr, session) << loaded.error;

  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto gpX = [&] {
    return unit(rng) * static_cast<double>(base.numSitesX - 1);
  };
  const auto gpY = [&] {
    return unit(rng) * static_cast<double>(base.numRows - 1);
  };
  const auto randomType = [&] {
    return base.types[rng() % base.types.size()].name;
  };
  int cells = base.numCells();
  int adopted = 0;
  int rejected = 0;
  int droppingRollbacks = 0;
  std::uint64_t id = 2;
  for (int step = 0; step < 160; ++step) {
    const auto kind = rng() % 10;
    ServeResponse response;
    TenantRequest finish;
    finish.id = id++;
    finish.tenant = "fuzz";
    if (kind == 0) {
      response = session->commit(finish);
    } else if (kind == 1) {
      response = session->rollback(finish);
      if (response.cells < cells) ++droppingRollbacks;
    } else {
      EcoDeltaRequest eco;
      eco.id = id++;
      eco.tenant = "fuzz";
      for (auto ops = rng() % 4 + 1; ops-- > 0;) {
        EcoOp op;
        op.cell = static_cast<int>(rng() % static_cast<std::uint64_t>(cells));
        op.gpX = gpX();
        op.gpY = gpY();
        switch (rng() % 8) {
          case 0:
            op.kind = EcoOp::Kind::Resize;
            op.type = randomType();
            break;
          case 1:
          case 2:
            op.kind = EcoOp::Kind::Add;
            op.type = randomType();
            if (rng() % 3 == 0 && base.numFences() > 0) {
              op.fence = base.fences[rng() % base.fences.size()].name;
            }
            break;
          case 3:  // malformed: an unknown cell, type or fence, or off-core
            switch (rng() % 4) {
              case 0:
                op.cell = cells + 7;
                break;
              case 1:
                op.kind = EcoOp::Kind::Resize;
                op.type = "no_such_type";
                break;
              case 2:
                op.kind = EcoOp::Kind::Add;
                op.type = randomType();
                op.fence = "no_such_fence";
                break;
              default:
                op.gpX = -3.0;
                break;
            }
            break;
          default:
            break;  // a move
        }
        eco.ops.push_back(op);
      }
      response = session->applyDelta(eco, Deadline());
      if (serveStatusOk(response.status)) {
        ++adopted;
      } else {
        ++rejected;
      }
    }
    const std::string where = "step " + std::to_string(step);

    QueryRequest query;
    query.tenant = "fuzz";
    query.key = "design";
    const ServeResponse current = session->query(query);
    auto design = readSimpleFormat(current.body);
    ASSERT_TRUE(design.has_value()) << where;
    cells = design->numCells();
    SegmentMap segments(*design);
    const ScoreBreakdown full = evaluateScore(*design, segments);
    ASSERT_EQ(placementHash(*design), current.hash) << where;
    ASSERT_EQ(bits(full.score), bits(current.score)) << where;
    if (!serveStatusOk(response.status)) continue;
    EXPECT_EQ(current.hash, response.hash) << where;
    EXPECT_EQ(bits(current.score), bits(response.score)) << where;
    if (response.body.empty()) continue;
    EXPECT_EQ(json17(full.displacement.average),
              jsonField(response.body, "avg_disp"))
        << where;
    EXPECT_EQ(json17(full.displacement.maximum),
              jsonField(response.body, "max_disp"))
        << where;
    EXPECT_EQ(json17(full.hpwlRatio), jsonField(response.body, "hpwl_ratio"))
        << where;
    EXPECT_EQ(std::to_string(full.pins.shorts),
              jsonField(response.body, "pin_shorts"))
        << where;
    EXPECT_EQ(std::to_string(full.pins.access),
              jsonField(response.body, "pin_access"))
        << where;
    EXPECT_EQ(std::to_string(full.edgeSpacing),
              jsonField(response.body, "edge_spacing"))
        << where;
    EXPECT_EQ(json17(full.score), jsonField(response.body, "score")) << where;
  }
  EXPECT_GT(adopted, 40);
  EXPECT_GT(rejected, 10);
  EXPECT_GT(droppingRollbacks, 0);
}

// After load, a request stream makes no from-scratch pass for its hash or
// score sums: eval.hash_scans, eval.sum_scans and eval.score_evaluations
// stay where the load left them.
TEST(ServeCounters, RequestsMakeNoFromScratchPass) {
  GenSpec spec;
  spec.name = "counters";
  spec.cellsPerHeight = {1600, 240, 100, 60};
  spec.density = 0.55;
  spec.numFences = 2;
  spec.numBlockages = 1;
  spec.seed = 7;
  const Design base = generate(spec);
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "count";
  load.designText = writeSimpleFormat(base);

  obs::setMetricsEnabled(true);
  obs::metricsReset();
  ServeResponse loaded;
  auto session = ServeSession::load(load, ServeSessionConfig{}, &loaded);
  ASSERT_NE(nullptr, session) << loaded.error;
  const auto counts = [] {
    return std::tuple{obs::counter("eval.hash_scans").value(),
                      obs::counter("eval.sum_scans").value(),
                      obs::counter("eval.score_evaluations").value()};
  };
  const auto atLoad = counts();

  QueryRequest query;
  query.tenant = "count";
  query.key = "design";
  const auto legal = readSimpleFormat(session->query(query).body);
  ASSERT_TRUE(legal.has_value());
  std::vector<CellId> movable;
  for (CellId c = 0; c < legal->numCells(); ++c) {
    if (!legal->cells[c].fixed) movable.push_back(c);
  }
  std::mt19937_64 rng(1);
  for (int k = 1; k <= 60; ++k) {
    EcoDeltaRequest eco;
    eco.id = static_cast<std::uint64_t>(2 * k);
    eco.tenant = "count";
    for (int i = 0; i < 3; ++i) {
      const CellId c = movable[rng() % movable.size()];
      const Cell& cell = legal->cells[c];
      EcoOp op;
      op.cell = c;
      op.gpX = std::clamp<double>(
          static_cast<double>(cell.x) + static_cast<double>(rng() % 13) - 6.0,
          0.0, static_cast<double>(legal->numSitesX - 1));
      op.gpY = static_cast<double>(cell.y);
      eco.ops.push_back(op);
    }
    const ServeResponse delta = session->applyDelta(eco, Deadline());
    ASSERT_TRUE(serveStatusOk(delta.status)) << delta.error;
    EXPECT_NE(std::string::npos,
              delta.body.find("\"used_full_run\":false"))
        << "request " << k;
    TenantRequest finish;
    finish.id = eco.id + 1;
    finish.tenant = "count";
    const ServeResponse done =
        k % 5 == 0 ? session->rollback(finish) : session->commit(finish);
    ASSERT_TRUE(serveStatusOk(done.status));
  }
  const auto afterRequests = counts();
  obs::setMetricsEnabled(false);
  obs::metricsReset();
  EXPECT_GT(std::get<0>(atLoad) + std::get<1>(atLoad), 0)
      << "the load's full legalize scores its stages from scratch";
  EXPECT_EQ(atLoad, afterRequests);
}

}  // namespace
}  // namespace mclg
