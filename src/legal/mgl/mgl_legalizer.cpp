#include "legal/mgl/mgl_legalizer.hpp"

#include <algorithm>
#include <cmath>

#include "db/free_span.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace mclg {

std::vector<CellId> MglLegalizer::orderCells() const {
  const auto& design = state_.design();
  std::vector<CellId> order;
  order.reserve(static_cast<std::size_t>(design.numCells()));
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (!cell.fixed && !cell.placed) order.push_back(c);
  }
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    const auto& ta = design.typeOf(a);
    const auto& tb = design.typeOf(b);
    if (ta.height != tb.height) return ta.height > tb.height;
    if (ta.width != tb.width) return ta.width > tb.width;
    const auto& ca = design.cells[a];
    const auto& cb = design.cells[b];
    if (ca.gpX != cb.gpX) return ca.gpX < cb.gpX;
    return a < b;
  });
  return order;
}

bool MglLegalizer::placeFallback(CellId c) {
  // Last resort, gap-first (full-core push searches are far too expensive
  // on dense designs). (1) Rank the existing free gaps by displacement;
  // (2) try a spacing-aware local insertion around each of the best few;
  // (3) drop into the best gap directly, paying an edge-spacing *soft*
  // violation if needed (§2); (4) only when no gap exists at all, run one
  // routability-relaxed full-core push insertion.
  auto& design = state_.design();
  const auto& cell = design.cells[c];
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  const double swf = design.siteWidthFactor;

  struct Gap {
    double cost;
    std::int64_t x, y;
  };
  std::vector<Gap> gaps;
  const auto gy = static_cast<std::int64_t>(std::lround(cell.gpY));
  double bestCost = std::numeric_limits<double>::infinity();
  for (std::int64_t dy = 0; dy < design.numRows; ++dy) {
    // Gaps further away in y than the current best + slack cannot improve.
    if (!gaps.empty() && static_cast<double>(dy) - 1.0 > bestCost + 4.0) break;
    for (const std::int64_t y : {gy - dy, gy + dy}) {
      if (dy == 0 && y != gy) continue;
      if (y < 0 || y + h > design.numRows) continue;
      if (!design.parityOk(cell.type, y)) continue;
      const auto free = freeIntervalsForSpan(state_, segments_, y, h,
                                             cell.fence,
                                             {0, design.numSitesX});
      for (const auto& iv : free) {
        if (iv.length() < w) continue;
        const std::int64_t x = std::clamp(
            static_cast<std::int64_t>(std::lround(cell.gpX)), iv.lo,
            iv.hi - w);
        const double cost = swf * std::abs(static_cast<double>(x) - cell.gpX) +
                            std::abs(static_cast<double>(y) - cell.gpY);
        gaps.push_back({cost, x, y});
        bestCost = std::min(bestCost, cost);
      }
    }
  }
  std::sort(gaps.begin(), gaps.end(), [](const Gap& a, const Gap& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });

  if (!gaps.empty() && config_.insertion.respectEdgeSpacing) {
    if (!directSearcher_) {
      InsertionConfig direct = config_.insertion;
      direct.routability = false;
      directSearcher_.emplace(state_, segments_, direct);
    }
    const int tries = std::min<std::size_t>(gaps.size(), 5);
    for (int g = 0; g < tries; ++g) {
      const Rect around =
          Rect{gaps[static_cast<std::size_t>(g)].x - 2 * design.maxCellWidth(),
               gaps[static_cast<std::size_t>(g)].y - h,
               gaps[static_cast<std::size_t>(g)].x + w +
                   2 * design.maxCellWidth(),
               gaps[static_cast<std::size_t>(g)].y + 2 * h}
              .intersect({0, 0, design.numSitesX, design.numRows});
      if (directSearcher_->tryInsert(c, around)) return true;
    }
  }
  if (!gaps.empty()) {
    state_.place(c, gaps[0].x, gaps[0].y);
    return true;
  }

  // No free gap anywhere: push-based full-core insertion (rare).
  if (!relaxedSearcher_) {
    InsertionConfig relaxed = config_.insertion;
    relaxed.routability = false;
    relaxed.maxSeedsPerRow = std::max(relaxed.maxSeedsPerRow, 64);
    relaxedSearcher_.emplace(state_, segments_, relaxed);
  }
  const Rect fullCore{0, 0, state_.design().numSitesX,
                      state_.design().numRows};
  return relaxedSearcher_->tryInsert(c, fullCore);
}

MglStats MglLegalizer::run() {
  auto& design = state_.design();
  // Pre-warm the lazily cached design statistics so the parallel stages
  // that follow MGL never race on filling them.
  design.maxCellHeight();
  design.cellsPerHeight();
  design.maxCellWidth();
  design.maxIoPinWidthFine();

  MglStats stats;
  const Rect fullCore{0, 0, design.numSitesX, design.numRows};
  InsertionSearcher searcher(state_, segments_, config_.insertion);
  int taskIndex = 0;
  for (const CellId c : orderCells()) {
    // Cancellation and fault-injection points, once per cell.
    if (config_.checkpoint) config_.checkpoint();
    if (config_.taskHook) config_.taskHook(taskIndex++);
    const auto& cell = design.cells[c];
    bool done = false;
    Rect prevWindow{0, 0, 0, 0};
    for (int level = 0; level <= config_.window.maxExpansions; ++level) {
      const Rect window = makeWindow(design, cell.gpX, cell.gpY,
                                     design.typeOf(c), config_.window, level);
      if (window == prevWindow) continue;  // clamped at the core boundary
      prevWindow = window;
      MCLG_TRACE_SCOPE("mgl/window", {{"cell", static_cast<double>(c)},
                                      {"level", static_cast<double>(level)}});
      if (searcher.tryInsert(c, window)) {
        done = true;
        break;
      }
      ++stats.windowExpansions;
      if (window == fullCore) break;  // nothing bigger to try
    }
    if (done) {
      ++stats.placed;
    } else if (placeFallback(c)) {
      ++stats.placed;
      ++stats.fallbackPlaced;
      if (obs::metricsEnabled()) obs::counter("mgl.fallback_placed").add();
    } else {
      ++stats.failed;
      MCLG_LOG_WARN() << "MGL: no room for cell " << c << " ("
                      << design.typeOf(c).name << ")";
    }
  }
  return stats;
}

}  // namespace mclg
