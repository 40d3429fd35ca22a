#include "legal/mgl/mgl_legalizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "db/free_span.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace mclg {

std::vector<CellId> MglLegalizer::orderCells() {
  const auto& design = state_.design();
  std::vector<CellId> order = state_.unplacedCells();
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

int MglLegalizer::placeFallback(CellId c) {
  // Last resort, gap-first (full-core push searches are far too expensive
  // on dense designs). (1) Take the cheapest free gaps (`nearestFreeSlots`);
  // (2) try a spacing-aware local insertion around each of the best few;
  // (3) drop into the best gap directly, paying an edge-spacing *soft*
  // violation if needed (§2); (4) only when no gap exists at all, run one
  // routability-relaxed full-core push insertion.
  auto& design = state_.design();
  const auto& cell = design.cells[c];
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  const std::vector<FreeSlot> gaps =
      nearestFreeSlots(state_, segments_, c, {0, design.numSitesX},
                       /*maxSlots=*/5, SlotTieBreak::LowerRow);

  if (!gaps.empty() && config_.insertion.respectEdgeSpacing) {
    if (!directSearcher_) {
      InsertionConfig direct = config_.insertion;
      direct.routability = false;
      directSearcher_.emplace(state_, segments_, direct);
    }
    // Five tries, a gap in the GP row taking two: its second try fails like
    // its first, but giving it to another gap moves cells (the pins).
    const auto gy = static_cast<std::int64_t>(std::lround(cell.gpY));
    int tries = 5;
    for (const FreeSlot& gap : gaps) {
      if (tries <= 0) break;
      tries -= gap.y == gy ? 2 : 1;
      const Rect around = Rect{gap.x - 2 * design.maxCellWidth(), gap.y - h,
                               gap.x + w + 2 * design.maxCellWidth(),
                               gap.y + 2 * h}
                              .intersect({0, 0, design.numSitesX,
                                          design.numRows});
      if (directSearcher_->tryInsert(c, around)) return 2;
    }
  }
  if (!gaps.empty()) {
    state_.place(c, gaps[0].x, gaps[0].y);
    return 3;
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
  return relaxedSearcher_->tryInsert(c, fullCore) ? 4 : 0;
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
  // Windows tried and wall seconds spent per window level
  // (mgl.window.level<k>, mgl.window.level<k>.wall_seconds), registered on
  // first use. The clock is read only when metrics are on.
  const bool metrics = obs::metricsEnabled();
  using Clock = std::chrono::steady_clock;
  struct LevelMetrics {
    obs::Counter* windows = nullptr;
    obs::Gauge* seconds = nullptr;
  };
  std::vector<LevelMetrics> levelMetrics(
      static_cast<std::size_t>(std::max(0, config_.window.maxExpansions) + 1));
  for (const CellId c : orderCells()) {
    // Cancellation and fault-injection point, once per cell.
    if (config_.checkpoint) config_.checkpoint();
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
      const auto start = metrics ? Clock::now() : Clock::time_point{};
      const bool inserted = searcher.tryInsert(c, window);
      if (metrics) {
        LevelMetrics& m = levelMetrics[static_cast<std::size_t>(level)];
        if (m.windows == nullptr) {
          const std::string name = "mgl.window.level" + std::to_string(level);
          m.windows = &obs::counter(name);
          m.seconds = &obs::gauge(name + ".wall_seconds");
        }
        m.windows->add();
        m.seconds->set(
            m.seconds->value() +
            std::chrono::duration<double>(Clock::now() - start).count());
      }
      if (inserted) {
        done = true;
        break;
      }
      ++stats.windowExpansions;
      if (window == fullCore) break;  // nothing bigger to try
    }
    const int step = done ? 0 : placeFallback(c);
    if (done) {
      ++stats.placed;
    } else if (step != 0) {
      ++stats.placed;
      ++stats.fallbackPlaced;
      if (obs::metricsEnabled()) {
        obs::counter("mgl.fallback_placed").add();
        obs::counter("mgl.fallback_placed.step" + std::to_string(step)).add();
      }
    } else {
      ++stats.failed;
      MCLG_LOG_WARN() << "MGL: no room for cell " << c << " ("
                      << design.typeOf(c).name << ")";
    }
  }
  return stats;
}

}  // namespace mclg
