// MGL — multi-row global legalization (paper §3.1, Algorithm 1, §3.5).
//
// Cells are legalized sequentially (tallest/widest first so the hard cells
// get first pick of the space); each cell is inserted into a window around
// its GP position, the window expanding geometrically on failure and being
// retried at once. MGL is always serial, so its output depends only on the
// design and the config, never on the thread count; the §3.5 parallelism
// lives in the later stages (§3.2 matching, §3.3 MCF components).
//
// The same engine runs the MLL baseline [12]: set
// config.insertion.gpObjective = false so displacement is measured from the
// cells' current positions instead of their GP positions.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "legal/mgl/insertion.hpp"
#include "legal/mgl/window.hpp"

namespace mclg {

struct MglConfig {
  WindowParams window;
  InsertionConfig insertion;
  /// Cooperative-cancellation hook, called before each cell. The pipeline
  /// guard installs a Deadline checkpoint here; a throw unwinds run() and
  /// is caught at the transaction boundary.
  std::function<void()> checkpoint;
  /// Test hook called before each cell with its index in processing order —
  /// the guard's fault-injection point for exercising exception
  /// propagation out of a stage.
  std::function<void(int)> taskHook;
};

struct MglStats {
  int placed = 0;
  int fallbackPlaced = 0;  // needed the routability-relaxed full-core pass
  int failed = 0;          // could not be placed at all
  long long windowExpansions = 0;
};

class MglLegalizer {
 public:
  MglLegalizer(PlacementState& state, const SegmentMap& segments,
               const MglConfig& config)
      : state_(state), segments_(segments), config_(config) {}

  /// Legalize every unplaced movable cell. Returns per-run statistics;
  /// stats.failed == 0 means a fully legal placement (modulo soft
  /// routability constraints, which are optimized, not guaranteed).
  MglStats run();

  /// Processing order used by run(): taller, then wider, then leftmost GP.
  std::vector<CellId> orderCells() const;

 private:
  /// Full-core, routability-relaxed last resort for a cell no window could
  /// take. Returns false only when the design genuinely has no room.
  bool placeFallback(CellId c);

  PlacementState& state_;
  const SegmentMap& segments_;
  MglConfig config_;
  // placeFallback's searchers (routability off; the relaxed one also widens
  // the seed cap), built on first use and kept so their arenas and epochs
  // survive from one fallback cell to the next.
  std::optional<InsertionSearcher> directSearcher_;
  std::optional<InsertionSearcher> relaxedSearcher_;
};

}  // namespace mclg
