#include "legal/eco/eco_planner.hpp"

#include <algorithm>
#include <vector>

namespace mclg {
namespace {

Rect inflate(const Rect& r, std::int64_t dx, std::int64_t dy,
             const Rect& core) {
  return Rect{r.xlo - dx, r.ylo - dy, r.xhi + dx, r.yhi + dy}.intersect(core);
}

}  // namespace

EcoPlan planEcoRegions(const Design& current,
                       const std::vector<CellId>& dirtyCells,
                       const std::vector<PlacementSnapshot::CellPos>& previous,
                       const WindowParams& params, int haloSites,
                       int haloRows) {
  EcoPlan plan;
  const Rect core{0, 0, current.numSitesX, current.numRows};
  const std::int64_t tileW = std::max(1, params.initialW);
  const std::int64_t tileH = std::max(1, params.initialH);
  const std::int64_t tilesX = (current.numSitesX + tileW - 1) / tileW;
  const std::int64_t tilesY = (current.numRows + tileH - 1) / tileH;
  plan.totalTiles = tilesX * tilesY;
  if (plan.totalTiles <= 0) return plan;

  // Exact dirty coverage on the initial-window tile grid: mark the tiles
  // each halo-inflated seed window touches. A rect merge would over-cover
  // badly for scattered edit bursts (bounding boxes of far-apart windows
  // chain into one core-sized region); the bitmap stays exact.
  std::vector<char> dirty(static_cast<std::size_t>(plan.totalTiles), 0);
  const auto markWindow = [&](const Rect& window) {
    const Rect r = inflate(window, haloSites, haloRows, core);
    if (r.xlo >= r.xhi || r.ylo >= r.yhi) return;
    const std::int64_t txLo = r.xlo / tileW;
    const std::int64_t txHi = std::min((r.xhi + tileW - 1) / tileW, tilesX);
    const std::int64_t tyLo = r.ylo / tileH;
    const std::int64_t tyHi = std::min((r.yhi + tileH - 1) / tileH, tilesY);
    for (std::int64_t ty = tyLo; ty < tyHi; ++ty) {
      for (std::int64_t tx = txLo; tx < txHi; ++tx) {
        dirty[static_cast<std::size_t>(ty * tilesX + tx)] = 1;
      }
    }
  };

  for (std::size_t i = 0; i < dirtyCells.size(); ++i) {
    const CellId c = dirtyCells[i];
    const Cell& cell = current.cells[c];
    const CellType& type = current.typeOf(c);
    markWindow(makeWindow(current, cell.gpX, cell.gpY, type, params, 0));
    if (const PlacementSnapshot::CellPos& old = previous[i]; old.placed) {
      // The vacated old position also disturbs its neighborhood.
      markWindow(makeWindow(current, static_cast<double>(old.x),
                            static_cast<double>(old.y), type, params, 0));
    }
  }

  for (const char d : dirty) plan.dirtyTiles += d;
  plan.reusedTiles = plan.totalTiles - plan.dirtyTiles;
  plan.coversCore = plan.dirtyTiles >= plan.totalTiles * 9 / 10;

  // Group the dirty tiles into 4-connected components; each component's
  // tile-aligned bounding rect (clipped to the core) is one reported dirty
  // region. Scan order makes the regions deterministic; the final sort
  // keeps the documented (ylo, xlo) order.
  std::vector<std::int64_t> stack;
  for (std::int64_t start = 0; start < plan.totalTiles; ++start) {
    if (dirty[static_cast<std::size_t>(start)] != 1) continue;
    std::int64_t txLo = tilesX, txHi = -1, tyLo = tilesY, tyHi = -1;
    stack.assign(1, start);
    dirty[static_cast<std::size_t>(start)] = 2;
    while (!stack.empty()) {
      const std::int64_t t = stack.back();
      stack.pop_back();
      const std::int64_t tx = t % tilesX, ty = t / tilesX;
      txLo = std::min(txLo, tx);
      txHi = std::max(txHi, tx);
      tyLo = std::min(tyLo, ty);
      tyHi = std::max(tyHi, ty);
      const std::int64_t neighbors[4] = {
          tx > 0 ? t - 1 : -1, tx + 1 < tilesX ? t + 1 : -1,
          ty > 0 ? t - tilesX : -1, ty + 1 < tilesY ? t + tilesX : -1};
      for (const std::int64_t n : neighbors) {
        if (n >= 0 && dirty[static_cast<std::size_t>(n)] == 1) {
          dirty[static_cast<std::size_t>(n)] = 2;
          stack.push_back(n);
        }
      }
    }
    plan.regions.push_back(Rect{txLo * tileW, tyLo * tileH,
                                (txHi + 1) * tileW, (tyHi + 1) * tileH}
                               .intersect(core));
  }
  std::sort(plan.regions.begin(), plan.regions.end(),
            [](const Rect& a, const Rect& b) {
              if (a.ylo != b.ylo) return a.ylo < b.ylo;
              return a.xlo < b.xlo;
            });
  plan.dirtyWindows = static_cast<int>(plan.regions.size());
  return plan;
}

}  // namespace mclg
