// Maximum-displacement optimization by same-type position matching
// (paper §3.2).
//
// Within each (cell type × fence region) group, cells may freely exchange
// their current positions: every position in the group is legal for every
// cell of the group (same footprint, same parity, same edge classes, and a
// position's pin-violation status does not depend on which same-type cell
// occupies it). A min-cost perfect matching between cells and the group's
// positions therefore cannot create any violation, and with the convexified
// cost
//
//   φ(δ) = δ           for δ <= δ0,
//          δ^5 / δ0^4  otherwise                     (Eq. 3)
//
// it trades (almost) no average displacement for large reductions of the
// tail — the paper's Table 3 effect.
#pragma once

#include <vector>

#include "db/placement_state.hpp"
#include "util/executor/executor.hpp"

namespace mclg {

struct MaxDispConfig {
  /// Tolerable displacement threshold δ0 of Eq. 3, in row heights.
  double delta0 = 10.0;
  /// Groups larger than this are split into spatially coherent chunks to
  /// bound the matching size (the paper's groups are naturally small; our
  /// synthetic suites can produce bigger ones).
  int maxGroupSize = 600;
  /// Sparsification: per cell, keep the own position plus this many nearest
  /// candidate positions.
  int candidatesPerCell = 16;
  /// Fixed-point scale for converting φ to integer MCF costs.
  double costScale = 1024.0;
  /// φ is clamped at this value to keep scaled costs inside int64.
  double phiClamp = 1e12;
  /// Groups are independent; their assignment problems solve in parallel
  /// (moves are applied serially, so results are thread-count invariant).
  int numThreads = 1;
  /// Lanes come from this executor when numThreads > 1 (default: the
  /// process-wide executor).
  ExecutorRef executor{};
  /// Groups up to this size solve with the dense O(n³) Hungarian algorithm
  /// (full cost matrix); larger groups use the sparse MCF reduction with
  /// nearest-candidate edges. Both are exact on their respective edge sets.
  int denseSolverThreshold = 96;
  /// Group by footprint (width × height × parity × edge classes) instead of
  /// cell type. Strictly more exchange opportunities; only valid when pin
  /// geometry does not matter (no-routability mode — different types have
  /// different pins, so a swap could change the pin-violation count).
  bool groupByFootprint = false;
  /// Focused-mode locality (optimizeMaxDisplacementFocused only): trim each
  /// surviving chunk to its focused cells plus this many spatially nearest
  /// group-mates on each side (in row-major order) before matching, so a
  /// request-sized focus solves a request-sized assignment instead of a
  /// whole maxGroupSize chunk. The matching still only permutes existing
  /// positions within the trimmed subset, so legality is unaffected. Must
  /// be positive there; set by the ECO driver (kEcoChainHalo), and the
  /// full pipeline never reads it.
  int focusTrim = 0;
};

struct MaxDispStats {
  int groups = 0;
  int cellsConsidered = 0;
  int cellsMoved = 0;
};

/// φ of Eq. 3 (exposed for tests and the φ-threshold ablation bench).
double phiCost(double delta, double delta0);

/// Run the optimization on a legal placement.
/// \pre  `state` holds a legal placement (the matching only permutes cells
///       over their group's existing positions, so it cannot repair — nor
///       create — violations).
/// \post Legality is never degraded; moves are applied in deterministic
///       group order, so results are thread-count invariant.
MaxDispStats optimizeMaxDisplacement(PlacementState& state,
                                     const MaxDispConfig& config);

/// Focused variant for incremental ECO re-legalization (docs/ECO.md): only
/// the matching chunks containing at least one cell with `focus[c] != 0`
/// are re-solved, each trimmed by `config.focusTrim`; all other groups keep
/// their placement untouched. matchChunks(focusedMatchingChunks(...)).
/// \pre  `focus.size() >= state.design().numCells()`,
///       `config.focusTrim > 0`; same legality precondition as above.
/// \post Same guarantees as optimizeMaxDisplacement, restricted to the
///       focused chunks (stats count only those).
MaxDispStats optimizeMaxDisplacementFocused(PlacementState& state,
                                            const MaxDispConfig& config,
                                            const std::vector<char>& focus);

/// The focused variant's chunks, in solve order: the chunks of the full
/// path's row-major slicing (whole groups up to maxGroupSize cells, else
/// slices of maxGroupSize, a one-cell tail slice dropped) that hold a
/// focused cell, each cut down to the ranks within focusTrim of a focused
/// cell, cells in row-major order, chunks in (group key, slice) order.
/// No group is sorted: one scan of the design counts each focused group's
/// members per row, a focused cell's rank is the members in the rows
/// below plus those left of it in its row, and the kept ranks are read off
/// the occupancy rows, so a request costs one scan plus the rows it reads.
/// \pre `state` is consistent with its design (every placed movable cell
///      indexed in each row it spans), as after any legal run.
std::vector<std::vector<CellId>> focusedMatchingChunks(
    const PlacementState& state, const MaxDispConfig& config,
    const std::vector<char>& focus);

/// Solve each chunk's assignment (in parallel) and apply the moves in
/// chunk order: the shared back half of both entry points. Stats count the
/// chunks and their cells.
MaxDispStats matchChunks(PlacementState& state, const MaxDispConfig& config,
                         const std::vector<std::vector<CellId>>& chunks);

}  // namespace mclg
