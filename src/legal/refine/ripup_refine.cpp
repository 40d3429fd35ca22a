#include "legal/refine/ripup_refine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "legal/mcfopt/fixed_row_order.hpp"
#include "util/assert.hpp"

namespace mclg {
namespace {

double weightedDisplacement(const Design& design, CellId c,
                            bool contestWeights) {
  const double w = contestWeights ? design.metricWeight(c) : 1.0;
  return w * design.displacement(c);
}

}  // namespace

RipupStats ripupRefine(PlacementState& state, const SegmentMap& segments,
                       const RipupConfig& config) {
  std::vector<CellId> all(static_cast<std::size_t>(state.design().numCells()));
  std::iota(all.begin(), all.end(), 0);
  return ripupRefine(state, segments, config, all);
}

RipupStats ripupRefine(PlacementState& state, const SegmentMap& segments,
                       const RipupConfig& config,
                       std::span<const CellId> focus) {
  auto& design = state.design();
  RipupStats stats;
  // One searcher for all passes; the per-cell commit gate is set through
  // setCostCeiling so the searcher's caches and scratch survive.
  InsertionSearcher searcher(state, segments, config.insertion);

  FixedRowOrderConfig mcfConfig;
  mcfConfig.contestWeights = config.insertion.contestWeights;
  mcfConfig.routability = config.insertion.routability;
  mcfConfig.respectEdgeSpacing = config.insertion.respectEdgeSpacing;
  mcfConfig.maxDispWeight = 0.0;  // pure displacement, matching stats.gain

  for (int pass = 0; pass < config.passes; ++pass) {
    // Candidates: most displaced first.
    std::vector<std::pair<double, CellId>> worst;
    for (const CellId c : focus) {
      const auto& cell = design.cells[c];
      if (cell.fixed || !cell.placed) continue;
      const double disp = design.displacement(c);
      if (disp > config.displacementThreshold) worst.emplace_back(disp, c);
    }
    std::sort(worst.begin(), worst.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    if (config.maxCellsPerPass > 0 &&
        static_cast<int>(worst.size()) > config.maxCellsPerPass) {
      worst.resize(static_cast<std::size_t>(config.maxCellsPerPass));
    }

    int improvedThisPass = 0;
    for (const auto& [disp, c] : worst) {
      (void)disp;
      const auto& cell = design.cells[c];
      const std::int64_t oldX = cell.x;
      const std::int64_t oldY = cell.y;
      const double freed =
          weightedDisplacement(design, c, config.insertion.contestWeights);

      state.remove(c);
      searcher.setCostCeiling(freed - config.minGain);
      const Rect window =
          Rect{static_cast<std::int64_t>(std::llround(cell.gpX)) -
                   config.windowW,
               static_cast<std::int64_t>(std::llround(cell.gpY)) -
                   config.windowH,
               static_cast<std::int64_t>(std::llround(cell.gpX)) +
                   config.windowW,
               static_cast<std::int64_t>(std::llround(cell.gpY)) +
                   config.windowH}
              .intersect({0, 0, design.numSitesX, design.numRows});
      ++stats.attempted;
      if (searcher.tryInsert(c, window)) {
        // The estimate gated the commit; the measured delta decides. When
        // multi-row chains interacted and the realized cost is not a strict
        // win, revert exactly.
        const double measured = searcher.lastCommit().measuredCost;
        if (measured < freed - config.minGain) {
          ++improvedThisPass;
          stats.gain += freed - measured;
        } else {
          searcher.undoLastCommit(c);
          state.place(c, oldX, oldY);
        }
      } else {
        // Nothing strictly better: the old spot is still free.
        state.place(c, oldX, oldY);
      }
    }
    stats.improved += improvedThisPass;
    if (improvedThisPass == 0) break;

    if (config.mcfResolve) {
      // The accepted re-insertions shifted neighbors; re-optimize every
      // cell's x under the fixed rows and order before the next pass ranks
      // candidates by displacement.
      const ForbiddenXIndex* forbidden =
          mcfConfig.routability && config.insertion.arena != nullptr
              ? &config.insertion.arena->forbiddenFor(design)
              : nullptr;
      const auto froStats =
          optimizeFixedRowOrder(state, segments, mcfConfig, forbidden);
      ++stats.mcfResolves;
      stats.mcfCellsMoved += froStats.cellsMoved;
      stats.mcfGain += froStats.objectiveBefore - froStats.objectiveAfter;
    }
  }
  return stats;
}

}  // namespace mclg
