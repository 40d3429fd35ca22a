// Rip-up & re-insert refinement (an extension beyond the paper's three
// stages).
//
// MGL's sequential nature means early cells never see later arrivals; the
// §3.2 matching fixes some of that within same-type groups, but a cell can
// still be stranded far from its GP next to space that opened up later.
// This pass takes the most-displaced cells, removes each one, and runs the
// window insertion again with a cost ceiling equal to the displacement the
// removal freed — the cell is re-committed only where the *regional*
// weighted displacement strictly improves, otherwise it goes back to its
// old spot. Legality is preserved unconditionally.
#pragma once

#include <span>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "legal/mgl/insertion.hpp"

namespace mclg {

struct RipupConfig {
  /// Only rip up cells displaced more than this (row heights).
  double displacementThreshold = 5.0;
  /// Cap on ripped-up cells per pass (most displaced first; 0 = all).
  int maxCellsPerPass = 0;
  int passes = 2;
  /// Minimum improvement (weighted cost) to accept a move.
  double minGain = 1e-9;
  /// Search window half-extents around the GP (sites × rows).
  int windowW = 64;
  int windowH = 24;
  InsertionConfig insertion;  // objective/routability flags
  /// Re-run the fixed-row/fixed-order MCF over every placed movable cell
  /// after each improving pass: the rip-ups shift cells inside their rows,
  /// so the x positions are re-optimized before the next pass ranks
  /// candidates.
  bool mcfResolve = true;
};

struct RipupStats {
  int attempted = 0;
  int improved = 0;
  /// Total weighted displacement removed (same units as the MGL objective).
  double gain = 0.0;
  /// Between-pass MCF re-solve activity (zero when mcfResolve is off).
  int mcfResolves = 0;
  int mcfCellsMoved = 0;
  double mcfGain = 0.0;
};

/// Refine a legal placement by ripping up the most-displaced cells of
/// `focus` (cell ids without repeats, in any order; its unplaced and fixed
/// cells are skipped) — the incremental ECO driver (docs/ECO.md) passes
/// its dirty and touched cells to confine the pass to the dirty
/// neighborhoods, so a pass costs O(|focus|) plus its rip-ups.
/// \pre  state is legal; \post legality preserved, weighted displacement
/// never increases (every accepted move is measured, not estimated).
/// Determinism: single-threaded, candidates ranked by (displacement, id) —
/// bit-reproducible and independent of the order of `focus`.
RipupStats ripupRefine(PlacementState& state, const SegmentMap& segments,
                       const RipupConfig& config,
                       std::span<const CellId> focus);

/// ripupRefine with every cell of the design in focus.
RipupStats ripupRefine(PlacementState& state, const SegmentMap& segments,
                       const RipupConfig& config);

}  // namespace mclg
