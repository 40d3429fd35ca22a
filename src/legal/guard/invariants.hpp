// Inter-stage invariant validators for the pipeline guard.
//
// After a stage commits, the guard audits the whole design with the
// independent eval/ checkers (not the legalizers' incremental state), so a
// stage that silently corrupted the placement — or a fault injected to
// simulate one — is caught at the transaction boundary:
//
//  - hard legality: no overlaps, inside the core, P/G parity, fences;
//  - monotone progress: a stage must never unplace cells;
//  - Eq. 10 non-regression within a configured tolerance (post-MGL stages
//    only; the score is undefined while cells are still unplaced).
#pragma once

#include <string>

#include "db/design.hpp"
#include "db/segment_map.hpp"
#include "legal/guard/guard.hpp"

namespace mclg {

/// Movable cells without a legal position — GuardReport's infeasible count.
int countUnplacedMovable(const Design& design);

struct InvariantResult {
  bool ok = true;
  std::string violation;  // empty when ok
  double score = -1.0;    // Eq. 10 of the audited placement; -1 = not measured
  ScoreBreakdown breakdown;  // the evaluation behind `score`, when measured
};

/// Post-stage audit: hard legality, placed-count monotonicity, and Eq. 10
/// within `scoreTolerance` (relative) of `scoreBefore`. `unplacedBefore` is
/// the movable unplaced count entering the stage; `scoreBefore` the Eq. 10
/// score entering it (-1 when unavailable, which disables the regression
/// check).
InvariantResult checkStageInvariants(const Design& design,
                                     const SegmentMap& segments,
                                     double scoreTolerance,
                                     PipelineStage stage, int unplacedBefore,
                                     double scoreBefore);

/// EcoEquivalence invariant (legal/eco/): the incremental result must be
/// fully legal, leave no movable cell unplaced that the full run placed,
/// and score (Eq. 10) within `scoreTolerance` relative of the full re-run;
/// with `exact` the two placements must additionally hash identically.
/// Returns the incremental score in `score`.
InvariantResult checkEcoEquivalence(const Design& incremental,
                                    const Design& full,
                                    const SegmentMap& segments,
                                    double scoreTolerance, bool exact);

}  // namespace mclg
