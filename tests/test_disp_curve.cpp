// Displacement-curve unit and property tests (paper Fig. 4 / Algorithm 1).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geometry/disp_curve.hpp"
#include "util/random.hpp"

namespace mclg {
namespace {

// Brute-force reference: displacement of a right-side cell as a function of
// the target x.
double refRightPush(double x, double cur, double gp, double off) {
  const double pos = std::max(cur, x + off);
  return std::abs(pos - gp);
}

double refLeftPush(double x, double cur, double gp, double off) {
  const double pos = std::min(cur, x - off);
  return std::abs(pos - gp);
}

TEST(DispCurve, TargetVShape) {
  const auto curve = DispCurve::targetV(10.0);
  EXPECT_DOUBLE_EQ(curve.value(10.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.value(7.0), 3.0);
  EXPECT_DOUBLE_EQ(curve.value(14.5), 4.5);
  EXPECT_EQ(curve.numBreakpoints(), 1);
  EXPECT_EQ(curve.kind(), DispCurve::Kind::TargetV);
}

TEST(DispCurve, ConstantCurve) {
  const auto curve = DispCurve::constant(2.5);
  EXPECT_DOUBLE_EQ(curve.value(-100.0), 2.5);
  EXPECT_DOUBLE_EQ(curve.value(100.0), 2.5);
  EXPECT_EQ(curve.numBreakpoints(), 0);
}

TEST(DispCurve, TypeA_RightCellGpLeftOfCurrent) {
  // cur = 20, gp = 15 (already pushed right of its GP), off = 4.
  const auto curve = DispCurve::rightPush(20.0, 15.0, 4.0);
  // Flat at 5 until the target starts pushing at x = 16.
  EXPECT_DOUBLE_EQ(curve.value(10.0), 5.0);
  EXPECT_DOUBLE_EQ(curve.value(16.0), 5.0);
  // Beyond: pushed right, displacement grows.
  EXPECT_DOUBLE_EQ(curve.value(18.0), 7.0);
  EXPECT_EQ(curve.numBreakpoints(), 1);
}

TEST(DispCurve, TypeC_RightCellGpRightOfCurrent) {
  // cur = 20, gp = 26: pushing right first *reduces* displacement.
  const auto curve = DispCurve::rightPush(20.0, 26.0, 4.0);
  EXPECT_DOUBLE_EQ(curve.value(10.0), 6.0);   // flat
  EXPECT_DOUBLE_EQ(curve.value(16.0), 6.0);   // push starts
  EXPECT_DOUBLE_EQ(curve.value(19.0), 3.0);   // falling
  EXPECT_DOUBLE_EQ(curve.value(22.0), 0.0);   // bottom at gp - off
  EXPECT_DOUBLE_EQ(curve.value(25.0), 3.0);   // rising
  EXPECT_EQ(curve.numBreakpoints(), 2);
}

TEST(DispCurve, TypeB_LeftCellGpRightOfCurrent) {
  // Left-side cell: cur = 10, gp = 12, off = 3.
  const auto curve = DispCurve::leftPush(10.0, 12.0, 3.0);
  EXPECT_DOUBLE_EQ(curve.value(20.0), 2.0);  // unpushed
  EXPECT_DOUBLE_EQ(curve.value(13.0), 2.0);  // push starts at cur + off
  EXPECT_DOUBLE_EQ(curve.value(11.0), 4.0);  // pushed left, away from gp
  EXPECT_EQ(curve.numBreakpoints(), 1);
}

TEST(DispCurve, TypeD_LeftCellGpLeftOfCurrent) {
  // cur = 10, gp = 6: pushing left first moves the cell toward its GP.
  const auto curve = DispCurve::leftPush(10.0, 6.0, 3.0);
  EXPECT_DOUBLE_EQ(curve.value(20.0), 4.0);  // unpushed
  EXPECT_DOUBLE_EQ(curve.value(13.0), 4.0);
  EXPECT_DOUBLE_EQ(curve.value(9.0), 0.0);   // bottom at gp + off
  EXPECT_DOUBLE_EQ(curve.value(7.0), 2.0);   // past the GP
  EXPECT_EQ(curve.numBreakpoints(), 2);
}

TEST(DispCurve, ScaledMultipliesValues) {
  const auto curve = DispCurve::targetV(5.0).scaled(0.5);
  EXPECT_DOUBLE_EQ(curve.value(9.0), 2.0);
  EXPECT_DOUBLE_EQ(curve.value(5.0), 0.0);
}

TEST(DispCurve, MatchesBruteForceRightPush) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const double cur = rng.uniformReal(-50, 50);
    const double gp = rng.uniformReal(-50, 50);
    const double off = rng.uniformReal(0.5, 20);
    const auto curve = DispCurve::rightPush(cur, gp, off);
    for (int s = 0; s < 20; ++s) {
      const double x = rng.uniformReal(-80, 80);
      EXPECT_NEAR(curve.value(x), refRightPush(x, cur, gp, off), 1e-9)
          << "cur=" << cur << " gp=" << gp << " off=" << off << " x=" << x;
    }
  }
}

TEST(DispCurve, MatchesBruteForceLeftPush) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const double cur = rng.uniformReal(-50, 50);
    const double gp = rng.uniformReal(-50, 50);
    const double off = rng.uniformReal(0.5, 20);
    const auto curve = DispCurve::leftPush(cur, gp, off);
    for (int s = 0; s < 20; ++s) {
      const double x = rng.uniformReal(-80, 80);
      EXPECT_NEAR(curve.value(x), refLeftPush(x, cur, gp, off), 1e-9);
    }
  }
}

TEST(CurveSum, EmptySumIsZeroEverywhere) {
  CurveSum sum;
  const auto result = sum.minimizeOnSites(-5, 5);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(CurveSum, InfeasibleInterval) {
  CurveSum sum;
  sum.add(DispCurve::targetV(0.0));
  EXPECT_FALSE(sum.minimizeOnSites(5, 4).feasible);
}

TEST(CurveSum, SingleVMinimizesAtCenter) {
  CurveSum sum;
  sum.add(DispCurve::targetV(12.0));
  const auto result = sum.minimizeOnSites(0, 100);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.x, 12);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(CurveSum, ClampsToIntervalEnds) {
  CurveSum sum;
  sum.add(DispCurve::targetV(12.0));
  const auto result = sum.minimizeOnSites(0, 8);
  EXPECT_EQ(result.x, 8);
  EXPECT_DOUBLE_EQ(result.value, 4.0);
}

TEST(CurveSum, FractionalBreakpointSnapsToBestNeighbor) {
  CurveSum sum;
  sum.add(DispCurve::targetV(10.3));
  const auto result = sum.minimizeOnSites(0, 100);
  EXPECT_EQ(result.x, 10);
  EXPECT_NEAR(result.value, 0.3, 1e-9);
}

// Property: the sweep minimum equals brute-force evaluation over the
// integer lattice, for random curve collections.
TEST(CurveSum, MatchesBruteForceOnRandomSums) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    CurveSum sum;
    const int numCurves = 1 + static_cast<int>(rng.uniformInt(0, 10));
    for (int i = 0; i < numCurves; ++i) {
      const double cur = rng.uniformReal(-30, 30);
      const double gp = rng.uniformReal(-30, 30);
      const double off = rng.uniformReal(0.5, 10);
      switch (rng.uniformInt(0, 3)) {
        case 0:
          sum.add(DispCurve::targetV(gp));
          break;
        case 1:
          sum.add(DispCurve::rightPush(cur, gp, off));
          break;
        case 2:
          sum.add(DispCurve::leftPush(cur, gp, off));
          break;
        default:
          sum.add(DispCurve::constant(std::abs(gp)));
          break;
      }
    }
    const std::int64_t lo = rng.uniformInt(-60, 0);
    const std::int64_t hi = rng.uniformInt(1, 60);
    const auto result = sum.minimizeOnSites(lo, hi);
    ASSERT_TRUE(result.feasible);

    double bruteBest = 1e100;
    std::int64_t bruteX = lo;
    for (std::int64_t x = lo; x <= hi; ++x) {
      const double v = sum.value(static_cast<double>(x));
      if (v < bruteBest - 1e-12) {
        bruteBest = v;
        bruteX = x;
      }
    }
    EXPECT_NEAR(result.value, bruteBest, 1e-7) << "trial " << trial;
    EXPECT_NEAR(sum.value(static_cast<double>(result.x)), bruteBest, 1e-7);
    (void)bruteX;
  }
}

// minimizeOnSites against a scan of every integer site in [lo, hi]: the
// same minimum and the same first argmin. Every input is a multiple of 1/4
// (scales too), so each sum is exact in double and the two must agree to
// the bit, including on flat stretches where the first site has to win.
TEST(CurveSum, MinimizeOnSitesMatchesEverySiteScan) {
  Rng rng(2024);
  const auto quarter = [&](int lo, int hi) {
    return static_cast<double>(rng.uniformInt(lo * 4, hi * 4)) / 4.0;
  };
  int flatWins = 0;  // trials whose minimum is attained at several sites
  for (int trial = 0; trial < 2000; ++trial) {
    CurveSum sum;
    const int numCurves = 1 + static_cast<int>(rng.uniformInt(0, 12));
    for (int i = 0; i < numCurves; ++i) {
      const double cur = quarter(-40, 40);
      const double gp = quarter(-40, 40);
      const double off = quarter(0, 12);
      const double scale = quarter(0, 3);
      switch (rng.uniformInt(0, 3)) {
        case 0:
          sum.add(DispCurve::targetV(gp).scaled(scale));
          break;
        case 1:
          sum.add(DispCurve::rightPush(cur, gp, off).scaled(scale));
          break;
        case 2:
          sum.add(DispCurve::leftPush(cur, gp, off).scaled(scale));
          break;
        default:
          sum.add(DispCurve::constant(std::abs(gp)).scaled(scale));
          break;
      }
    }
    const std::int64_t lo = rng.uniformInt(-50, 10);
    const std::int64_t hi = lo + rng.uniformInt(0, 60);
    const auto result = sum.minimizeOnSites(lo, hi);
    ASSERT_TRUE(result.feasible);

    double best = std::numeric_limits<double>::infinity();
    std::int64_t firstArgmin = lo;
    int argmins = 0;
    for (std::int64_t x = lo; x <= hi; ++x) {
      const double v = sum.value(static_cast<double>(x));
      if (v < best) {
        best = v;
        firstArgmin = x;
        argmins = 1;
      } else if (v == best) {
        ++argmins;
      }
    }
    EXPECT_EQ(result.value, best) << "trial " << trial;
    EXPECT_EQ(result.x, firstArgmin) << "trial " << trial;
    flatWins += argmins > 1 ? 1 : 0;
  }
  EXPECT_GT(flatWins, 50);
}

}  // namespace
}  // namespace mclg
