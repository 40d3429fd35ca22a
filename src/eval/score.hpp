// Contest quality score, Eq. 10 of the paper (ICCAD 2017 style):
//
//   S = (1 + S_hpwl + (N_p + N_e)/m) * (1 + max_i δ_i / Δ) * S_am
//
// with Δ = 100, S_hpwl the HPWL increase ratio, N_p pin access/short
// violations, N_e edge-spacing violations, m the number of movable cells,
// and S_am the height-weighted average displacement (Eq. 2). Lower is
// better. The paper's footnote drops the runtime and target-utilization
// terms, and so do we.
#pragma once

#include "db/design.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"

namespace mclg {

struct ScoreBreakdown {
  DisplacementStats displacement;
  double hpwlRatio = 0.0;
  PinViolationReport pins;
  int edgeSpacing = 0;
  LegalityReport legality;
  double score = 0.0;

  static constexpr double kDelta = 100.0;
};

/// Evaluate every metric and the combined score on the current placement.
ScoreBreakdown evaluateScore(const Design& design, const SegmentMap& segments);

/// The same, reusing `legality`: checkLegality() of this very placement.
ScoreBreakdown evaluateScore(const Design& design,
                             const LegalityReport& legality);

/// Just the combination formula (exposed for tests).
double combineScore(double avgDisp, double maxDisp, double hpwlRatio,
                    int pinViolations, int edgeViolations, int numCells);

}  // namespace mclg
