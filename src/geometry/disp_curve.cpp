#include "geometry/disp_curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace mclg {

double CurveSum::value(double x) const {
  double total = 0.0;
  for (const auto& curve : curves_) total += curve.value(x);
  return total;
}

CurveSum::Result CurveSum::minimizeOnSites(std::int64_t loSite,
                                           std::int64_t hiSite) const {
  Result result;
  if (loSite > hiSite) return result;
  const double startX = static_cast<double>(loSite);

  // Slope-change events strictly right of startX, for the incremental sweep.
  auto& events = eventScratch_;
  events.clear();

  double slope = 0.0;   // total slope immediately right of startX
  double value0 = 0.0;  // total value at startX
  for (const auto& curve : curves_) {
    value0 += curve.value(startX);
    const int nb = curve.numBreakpoints();
    int seg = 0;  // segment containing (startX, startX + eps)
    for (int i = 0; i < nb; ++i) {
      const double b = curve.breakpoint(i);
      if (b <= startX) {
        ++seg;
      } else {
        events.push_back({b, curve.segmentSlope(i + 1) - curve.segmentSlope(i)});
      }
    }
    slope += curve.segmentSlope(seg);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.x < b.x; });

  // Candidate integer positions, ascending and unique: the interval ends
  // plus floor/ceil of every breakpoint inside the interval (the minimum of
  // a piecewise-linear sum on the integer lattice is at a snapped breakpoint
  // or an end). Every event lies right of loSite, so its floor and ceil are
  // >= loSite; both are monotone in the event x, so merging the floor and
  // the ceil sequences of the sorted events yields the sorted set.
  auto& candidates = candidateScratch_;
  candidates.clear();
  candidates.push_back(loSite);
  const auto append = [&](std::int64_t site) {
    if (site > candidates.back() && site <= hiSite) candidates.push_back(site);
  };
  for (std::size_t f = 0, c = 0; c < events.size();) {
    const auto ce = static_cast<std::int64_t>(std::ceil(events[c].x));
    if (f < events.size()) {
      const auto fl = static_cast<std::int64_t>(std::floor(events[f].x));
      if (fl <= ce) {
        append(fl);
        ++f;
        continue;
      }
    }
    append(ce);
    ++c;
  }
  append(hiSite);

  // Merged sweep left to right; the running value is exact because the total
  // is linear between consecutive events.
  result.feasible = true;
  result.value = std::numeric_limits<double>::infinity();
  std::size_t nextEvent = 0;
  double curX = startX;
  double curValue = value0;
  for (const auto cand : candidates) {
    const double cx = static_cast<double>(cand);
    while (nextEvent < events.size() && events[nextEvent].x <= cx) {
      curValue += slope * (events[nextEvent].x - curX);
      curX = events[nextEvent].x;
      slope += events[nextEvent].dslope;
      ++nextEvent;
    }
    curValue += slope * (cx - curX);
    curX = cx;
    if (curValue < result.value - 1e-12) {
      result.value = curValue;
      result.x = cand;
    }
  }
  return result;
}

}  // namespace mclg
