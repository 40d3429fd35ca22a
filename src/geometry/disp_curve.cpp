#include "geometry/disp_curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace mclg {

DispCurve DispCurve::constant(double value) {
  DispCurve c;
  c.kind_ = Kind::Constant;
  c.nb_ = 0;
  c.v0_ = value;
  return c;
}

DispCurve DispCurve::targetV(double gpX) {
  DispCurve c;
  c.kind_ = Kind::TargetV;
  c.nb_ = 1;
  c.b_[0] = gpX;
  c.s_[0] = -1.0;
  c.s_[1] = 1.0;
  c.v0_ = 0.0;
  return c;
}

DispCurve DispCurve::rightPush(double cur, double gp, double off) {
  DispCurve c;
  c.kind_ = Kind::RightPush;
  const double pushStart = cur - off;  // for x > pushStart the cell moves
  if (gp <= cur) {
    // Type A: flat at (cur - gp), then rising with slope 1.
    c.nb_ = 1;
    c.b_[0] = pushStart;
    c.s_[0] = 0.0;
    c.s_[1] = 1.0;
    c.v0_ = cur - gp;
  } else {
    // Type C: flat at (gp - cur), falls while the push moves the cell toward
    // its GP, then rises once pushed past it.
    c.nb_ = 2;
    c.b_[0] = pushStart;
    c.b_[1] = gp - off;
    c.s_[0] = 0.0;
    c.s_[1] = -1.0;
    c.s_[2] = 1.0;
    c.v0_ = gp - cur;
  }
  return c;
}

DispCurve DispCurve::leftPush(double cur, double gp, double off) {
  DispCurve c;
  c.kind_ = Kind::LeftPush;
  const double pushStart = cur + off;  // for x < pushStart the cell moves
  if (gp >= cur) {
    // Type B: falling with slope -1 while pushed (pos = x - off < cur <= gp),
    // then flat at (gp - cur).
    c.nb_ = 1;
    c.b_[0] = pushStart;
    c.s_[0] = -1.0;
    c.s_[1] = 0.0;
    c.v0_ = gp - cur;
  } else {
    // Type D: V while pushed (bottom where pos == gp), flat once unpushed.
    c.nb_ = 2;
    c.b_[0] = gp + off;
    c.b_[1] = pushStart;
    c.s_[0] = -1.0;
    c.s_[1] = 1.0;
    c.s_[2] = 0.0;
    c.v0_ = 0.0;
  }
  return c;
}

DispCurve DispCurve::scaled(double w) const {
  MCLG_ASSERT(w >= 0.0, "curve scale must be non-negative");
  DispCurve c = *this;
  c.v0_ *= w;
  for (double& s : c.s_) s *= w;
  return c;
}

double DispCurve::value(double x) const {
  if (nb_ == 0) return v0_;
  if (x <= b_[0]) return v0_ + s_[0] * (x - b_[0]);
  if (nb_ == 1 || x <= b_[1]) return v0_ + s_[1] * (x - b_[0]);
  const double v1 = v0_ + s_[1] * (b_[1] - b_[0]);
  return v1 + s_[2] * (x - b_[1]);
}

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

  // Candidate integer positions: interval ends plus floor/ceil of every
  // breakpoint inside the interval (the minimum of a piecewise-linear sum on
  // the integer lattice is at a snapped breakpoint or an end).
  auto& candidates = candidateScratch_;
  candidates.clear();
  candidates.push_back(loSite);
  candidates.push_back(hiSite);

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
        const auto fl = static_cast<std::int64_t>(std::floor(b));
        const auto ce = static_cast<std::int64_t>(std::ceil(b));
        if (fl >= loSite && fl <= hiSite) candidates.push_back(fl);
        if (ce >= loSite && ce <= hiSite) candidates.push_back(ce);
      }
    }
    slope += curve.segmentSlope(seg);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.x < b.x; });

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
