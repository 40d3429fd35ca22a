#include "legal/guard/invariants.hpp"

#include <string>

#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"

namespace mclg {

namespace {

std::string describe(const char* what, int count) {
  return std::string(what) + " (" + std::to_string(count) + ")";
}

}  // namespace

int countUnplacedMovable(const Design& design) {
  int count = 0;
  for (const auto& cell : design.cells) {
    if (!cell.fixed && !cell.placed) ++count;
  }
  return count;
}

InvariantResult checkStageInvariants(const Design& design,
                                     const SegmentMap& segments,
                                     double scoreTolerance,
                                     PipelineStage stage, int unplacedBefore,
                                     double scoreBefore) {
  InvariantResult result;
  const LegalityReport legality = checkLegality(design, segments);
  if (legality.overlaps > 0) {
    result.violation = describe("overlapping cell pairs", legality.overlaps);
  } else if (legality.outOfCore > 0) {
    result.violation = describe("cells outside the core", legality.outOfCore);
  } else if (legality.parityViolations > 0) {
    result.violation =
        describe("P/G parity violations", legality.parityViolations);
  } else if (legality.fenceViolations > 0) {
    result.violation = describe("fence violations", legality.fenceViolations);
  } else if (legality.unplacedCells > unplacedBefore) {
    result.violation = "stage unplaced cells (" +
                       std::to_string(unplacedBefore) + " -> " +
                       std::to_string(legality.unplacedCells) + ")";
  }
  if (!result.violation.empty()) {
    result.ok = false;
    return result;
  }
  result.breakdown = evaluateScore(design, legality);
  result.score = result.breakdown.score;
  // Regression check only when a pre-stage score exists (post-MGL stages);
  // MGL itself turns an unscoreable GP input into a placement.
  if (stage != PipelineStage::Mgl && scoreBefore >= 0.0 &&
      result.score > scoreBefore * (1.0 + scoreTolerance) + 1e-9) {
    result.ok = false;
    result.violation = "Eq. 10 score regressed " +
                       std::to_string(scoreBefore) + " -> " +
                       std::to_string(result.score) + " (tolerance " +
                       std::to_string(scoreTolerance) + ")";
  }
  return result;
}

InvariantResult checkEcoEquivalence(const Design& incremental,
                                    const Design& full,
                                    const SegmentMap& segments,
                                    double scoreTolerance, bool exact) {
  InvariantResult result;
  const LegalityReport legality = checkLegality(incremental, segments);
  if (legality.overlaps > 0 || legality.outOfCore > 0 ||
      legality.parityViolations > 0 || legality.fenceViolations > 0) {
    result.ok = false;
    result.violation = "incremental result is not legal";
    return result;
  }
  // Unplaced cells are compared against the full run (an infeasible design
  // leaves the same cells unplaced either way).
  if (legality.unplacedCells > countUnplacedMovable(full)) {
    result.ok = false;
    result.violation =
        "incremental run left " + std::to_string(legality.unplacedCells) +
        " cells unplaced vs " + std::to_string(countUnplacedMovable(full)) +
        " in the full run";
    return result;
  }
  result.score = evaluateScore(incremental, segments).score;
  if (exact) {
    if (placementHash(incremental) != placementHash(full)) {
      result.ok = false;
      result.violation = "exact mode: placements differ";
    }
    return result;
  }
  // SegmentMap depends only on fixed geometry, identical in both designs.
  const double fullScore = evaluateScore(full, segments).score;
  if (result.score > fullScore * (1.0 + scoreTolerance) + 1e-9) {
    result.ok = false;
    result.violation = "ECO score " + std::to_string(result.score) +
                       " exceeds full-run score " + std::to_string(fullScore) +
                       " beyond tolerance " + std::to_string(scoreTolerance);
  }
  return result;
}

}  // namespace mclg
