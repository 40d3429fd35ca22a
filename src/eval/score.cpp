#include "eval/score.hpp"

#include "obs/obs.hpp"

namespace mclg {

double combineScore(double avgDisp, double maxDisp, double hpwlRatio,
                    int pinViolations, int edgeViolations, int numCells) {
  const double m = numCells > 0 ? static_cast<double>(numCells) : 1.0;
  const double quality =
      1.0 + hpwlRatio + (pinViolations + edgeViolations) / m;
  const double maxTerm = 1.0 + maxDisp / ScoreBreakdown::kDelta;
  return quality * maxTerm * avgDisp;
}

ScoreBreakdown evaluateScore(const Design& design,
                             const SegmentMap& segments) {
  return evaluateScore(design, checkLegality(design, segments));
}

ScoreBreakdown evaluateScore(const Design& design,
                             const LegalityReport& legality) {
  if (obs::metricsEnabled()) obs::counter("eval.score_evaluations").add();
  ScoreBreakdown out;
  out.displacement = displacementStats(design);
  out.hpwlRatio = hpwlIncreaseRatio(design);
  out.pins = countPinViolations(design);
  out.edgeSpacing = countEdgeSpacingViolations(design);
  out.legality = legality;
  int movable = 0;
  for (const auto& cell : design.cells) {
    if (!cell.fixed) ++movable;
  }
  out.score = combineScore(out.displacement.average, out.displacement.maximum,
                           out.hpwlRatio, out.pins.total(), out.edgeSpacing,
                           movable);
  return out;
}

}  // namespace mclg
