// Baseline legalizers the paper compares against (DESIGN.md §3 documents
// each substitution):
//
//  - TetrisLegalizer: classic greedy nearest-free-slot packing; crude
//    reference lower bound.
//  - AbacusMultiLegalizer: [7]-style ordered legalization — cells processed
//    in GP x order, per-row frontier packing with a dead-space cost.
//  - legalizeMll: [12] — the window-insertion engine run with displacement
//    measured from *current* locations (the paper's own characterization of
//    MLL's weakness; see Fig. 3).
//  - legalizeOrderedQp: [9] — order-preserving row assignment followed by
//    the quadratic fixed-row-&-order optimization (the Table 2 column);
//    legalizeOrderedMcf is the same with the linear-objective MCF.
//  - legalizeChampionProxy: ICCAD17-champion stand-in for Table 1 — Tetris
//    packing plus the fixed-row-&-order MCF with routability handling
//    disabled, so it accrues the edge/pin violations the champion shows.
#pragma once

#include <algorithm>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"

namespace mclg {

/// The order Tetris and Abacus-multi take cells in: the state's unplaced
/// cells by GP x, ties by id.
inline std::vector<CellId> gpXOrder(PlacementState& state) {
  const auto& cells = state.design().cells;
  std::vector<CellId> order = state.unplacedCells();
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    if (cells[a].gpX != cells[b].gpX) return cells[a].gpX < cells[b].gpX;
    return a < b;
  });
  return order;
}

struct BaselineStats {
  int placed = 0;
  int failed = 0;
};

/// Greedy Tetris packing. Ignores edge-spacing and routability (counts as
/// violations afterwards); honors fences, parity, and overlap freedom.
BaselineStats legalizeTetris(PlacementState& state, const SegmentMap& segments);

/// [7]-style ordered multi-row Abacus.
BaselineStats legalizeAbacusMulti(PlacementState& state,
                                  const SegmentMap& segments);

/// [12] MLL: window insertion with current-location displacement.
BaselineStats legalizeMll(PlacementState& state, const SegmentMap& segments,
                          bool contestWeights);

/// [9] proxy: ordered row assignment + optimal fixed-row-&-order MCF
/// (linear objective).
BaselineStats legalizeOrderedMcf(PlacementState& state,
                                 const SegmentMap& segments);

/// [9] faithful: ordered row assignment + the *quadratic* fixed-row-&-order
/// optimization via KKT/LCP projected Gauss-Seidel (what Chen et al.
/// actually solve). Used as the Table 2 "[9]" column.
BaselineStats legalizeOrderedQp(PlacementState& state,
                                const SegmentMap& segments);

/// ICCAD17 champion proxy: Tetris, then the fixed-row-&-order MCF with
/// contest weights; routability, edge spacing and the max-displacement
/// term off.
BaselineStats legalizeChampionProxy(PlacementState& state,
                                    const SegmentMap& segments);

}  // namespace mclg
