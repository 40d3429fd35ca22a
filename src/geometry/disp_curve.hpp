// Displacement curves (paper §3.1, Fig. 4) and their summation.
//
// When the MGL legalizer evaluates an insertion point, every local cell
// contributes a piecewise-linear curve mapping the target cell's
// x-coordinate to that cell's displacement from its GP position:
//
//   type A — right-side cell whose GP is at/left of its current x:
//            flat, then rising once the target starts pushing it.
//   type B — mirror of A on the left side.
//   type C — right-side cell whose GP is right of its current x:
//            flat, falling (push moves it *toward* GP), then rising.
//   type D — mirror of C on the left side.
//
// The target cell itself contributes a V curve centered at its GP x.
// MLL's curves (displacement w.r.t. *current* positions) are the special
// case gp == cur, which collapses C/D back into A/B — the library exposes
// that via the same constructors, which is how the MLL baseline reuses
// this machinery.
//
// CurveSum adds elementary curves and minimizes the total over integer site
// positions in a feasible interval. The minimum of a sum of piecewise-linear
// functions is attained at a breakpoint or an interval end (Theorem 1 gives
// convexity only under a precondition the paper deliberately does not
// enforce, so we evaluate every breakpoint — exactly as §3.1 describes).
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace mclg {

/// One elementary piecewise-linear displacement contribution with at most
/// two breakpoints (three slope segments). Everything is inline: MGL builds
/// and evaluates these in its innermost loop.
class DispCurve {
 public:
  enum class Kind { Constant, TargetV, RightPush, LeftPush };

  /// f(x) = value (no breakpoints).
  static DispCurve constant(double value) {
    DispCurve c;
    c.kind_ = Kind::Constant;
    c.nb_ = 0;
    c.v0_ = value;
    return c;
  }

  /// f(x) = |x - gpX| : the target cell's own x-displacement.
  static DispCurve targetV(double gpX) {
    DispCurve c;
    c.kind_ = Kind::TargetV;
    c.nb_ = 1;
    c.b_[0] = gpX;
    c.s_[0] = -1.0;
    c.s_[1] = 1.0;
    c.v0_ = 0.0;
    return c;
  }

  /// Cell to the RIGHT of the insertion point.
  /// Its position as a function of the target x is pos(x) = max(cur, x + off),
  /// where `off` is the target width plus everything packed between them.
  /// f(x) = |pos(x) - gp|; yields type A (gp <= cur) or type C (gp > cur).
  static DispCurve rightPush(double cur, double gp, double off) {
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
      // Type C: flat at (gp - cur), falls while the push moves the cell
      // toward its GP, then rises once pushed past it.
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

  /// Cell to the LEFT of the insertion point: pos(x) = min(cur, x - off).
  /// Yields type B (gp >= cur) or type D (gp < cur).
  static DispCurve leftPush(double cur, double gp, double off) {
    DispCurve c;
    c.kind_ = Kind::LeftPush;
    const double pushStart = cur + off;  // for x < pushStart the cell moves
    if (gp >= cur) {
      // Type B: falling with slope -1 while pushed (pos = x - off < cur <=
      // gp), then flat at (gp - cur).
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

  /// Multiply the whole curve by w (used for per-height metric weights and
  /// the site-width-to-row-height displacement conversion).
  DispCurve scaled(double w) const {
    MCLG_ASSERT(w >= 0.0, "curve scale must be non-negative");
    DispCurve c = *this;
    c.v0_ *= w;
    for (double& s : c.s_) s *= w;
    return c;
  }

  double value(double x) const {
    if (nb_ == 0) return v0_;
    if (x <= b_[0]) return v0_ + s_[0] * (x - b_[0]);
    if (nb_ == 1 || x <= b_[1]) return v0_ + s_[1] * (x - b_[0]);
    const double v1 = v0_ + s_[1] * (b_[1] - b_[0]);
    return v1 + s_[2] * (x - b_[1]);
  }

  int numBreakpoints() const { return nb_; }
  double breakpoint(int i) const { return b_[i]; }
  /// Slope of segment i: 0 = left of the first breakpoint, nb_ = rightmost.
  double segmentSlope(int i) const { return s_[i]; }
  Kind kind() const { return kind_; }

 private:
  DispCurve() = default;

  Kind kind_ = Kind::Constant;
  int nb_ = 0;          // number of breakpoints (0..2)
  double b_[2] = {};    // breakpoints, b_[0] <= b_[1]
  double s_[3] = {};    // slopes: before b0, between b0/b1, after b1
  double v0_ = 0.0;     // value at b_[0] (or the constant value when nb_==0)
};

/// Accumulates elementary curves and minimizes their sum over the integer
/// lattice inside [loSite, hiSite] (inclusive).
class CurveSum {
 public:
  struct Result {
    std::int64_t x = 0;    // best integer position
    double value = 0.0;    // total displacement there
    bool feasible = false; // false iff the interval was empty
  };

  void add(const DispCurve& curve) { curves_.push_back(curve); }
  void clear() { curves_.clear(); }
  std::size_t size() const { return curves_.size(); }

  /// Sum of breakpoints over all accumulated curves (0–2 each); this is the
  /// B that drives the minimizeOnSites sweep cost.
  int totalBreakpoints() const {
    int total = 0;
    for (const auto& curve : curves_) total += curve.numBreakpoints();
    return total;
  }

  /// Total curve value at an arbitrary x (linear in #curves).
  double value(double x) const;

  /// Minimize over integer x in [loSite, hiSite]. Candidates are the snapped
  /// breakpoints of every summand plus the interval ends; evaluation is a
  /// single merged sweep, O(B log B) with B breakpoints: the one sort is of
  /// the slope-change events, and the candidates are read off the sorted
  /// events (floor and ceil are monotone), not sorted on their own.
  /// Scratch buffers are reused across calls (this sits in MGL's innermost
  /// loop), hence not thread-safe per CurveSum instance.
  Result minimizeOnSites(std::int64_t loSite, std::int64_t hiSite) const;

 private:
  struct Event {
    double x;
    double dslope;
  };

  std::vector<DispCurve> curves_;
  mutable std::vector<std::int64_t> candidateScratch_;
  mutable std::vector<Event> eventScratch_;
};

}  // namespace mclg
