// Dirty-region planning for incremental ECO re-legalization.
//
// The planner turns a set of dirty cells into a minimal set of dirty
// regions: one level-0 MGL window (paper §3.1) is seeded around each dirty
// cell's GP target *and* around its previous legal position (both sides of
// a move can disturb neighbors), each inflated by a halo that bounds the
// displacement spill of the incremental insertion. Coverage is tracked
// exactly on the initial-window tile grid (a bitmap, not a rect merge, so
// scattered edits never chain into a core-sized bounding box); connected
// dirty-tile components become the reported regions. Everything outside
// the dirty tiles is clean — its cells keep their snapshot positions and
// its window-epoch caches are never rebuilt — which is where the ECO
// speedup comes from.
//
// The window-grid accounting (total / dirty / reused tiles of the
// initial-window grid) feeds the run report's `eco.*` fields.
#pragma once

#include <vector>

#include "db/design.hpp"
#include "db/placement_state.hpp"
#include "geometry/rect.hpp"
#include "legal/mgl/window.hpp"

namespace mclg {

struct EcoPlan {
  /// Tile-aligned bounding rects of the connected dirty-tile components
  /// (halo included), clipped to the core. Bounding boxes of concave
  /// components may overlap each other; the tile counts below stay exact.
  std::vector<Rect> regions;
  /// Number of connected dirty regions — the report's `eco.dirty_windows`.
  int dirtyWindows = 0;
  /// Tiles of the initial-window grid covering the core.
  long long totalTiles = 0;
  /// Tiles covered by some halo-inflated seed window (exact bitmap count).
  long long dirtyTiles = 0;
  /// Clean tiles whose caches/placement survive — `eco.reused_windows`.
  long long reusedTiles = 0;
  /// The dirty regions cover (almost) the whole core; an incremental run
  /// would do full-run work, so the driver may prefer the full pipeline.
  bool coversCore = false;
};

/// Plan the dirty regions for `dirtyCells` (ids into `current`).
/// `previous[i]` is the last legal placement of `dirtyCells[i]`; a cell
/// that had none (an ECO addition) seeds a window at its GP target only.
/// \pre  previous.size() == dirtyCells.size().
/// \post regions are sorted by (ylo, xlo);
///       dirtyTiles + reusedTiles == totalTiles. Deterministic.
EcoPlan planEcoRegions(const Design& current,
                       const std::vector<CellId>& dirtyCells,
                       const std::vector<PlacementSnapshot::CellPos>& previous,
                       const WindowParams& params, int haloSites,
                       int haloRows);

}  // namespace mclg
