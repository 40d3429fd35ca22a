// Displacement and wirelength metrics (paper Eqs. 1-2 and the HPWL term of
// the contest score).
#pragma once

#include <cstdint>
#include <span>

#include "db/design.hpp"

namespace mclg {

struct DisplacementStats {
  /// Eq. 2: average displacement weighted per height class, in row heights.
  double average = 0.0;
  /// Largest single-cell displacement, in row heights.
  double maximum = 0.0;
  /// Plain sum of per-cell displacement, in *sites* (the Table 2 metric:
  /// row-height displacement divided by the site-width factor).
  double totalSites = 0.0;
};

/// Displacement of all movable placed cells from their GP positions. The
/// per-height sums and totalSites add in the fixed block order of
/// eval/block_sum.hpp over cell ids.
DisplacementStats displacementStats(const Design& design);

/// Eq. 2 from the per-height displacement sums (indexed by height, at least
/// maxCellHeight() + 1 of them), combined as displacementStats() does.
double averageDisplacement(const Design& design,
                           std::span<const double> sumPerHeight);

/// Half-perimeter wirelength over all nets, in site units, using the current
/// legal positions (GP positions when useGp): netHpwl() of the nets with two
/// or more pins, added in the fixed block order of eval/block_sum.hpp over
/// net ids.
double hpwl(const Design& design, bool useGp);

/// One net's term of hpwl(): its half-perimeter in site units. A caller
/// that keeps the per-net terms in a KeptSum (zero for nets with fewer than
/// two pins) gets the same double as hpwl(), bit for bit.
double netHpwl(const Design& design, const Net& net, bool useGp);

/// HPWL increase ratio of the legal placement over the GP placement
/// (the S_hpwl term of Eq. 10); 0 when the design has no nets.
double hpwlIncreaseRatio(const Design& design);

/// One cell's term of placementHash(): s(s(s(2·c + placed) ^ x) ^ y), with
/// s the SplitMix64 output step (z += 0x9e3779b97f4a7c15, then the
/// variant-13 finalizer) and x, y as 64-bit two's complement.
std::uint64_t cellPlacementHash(CellId c, bool placed, std::int64_t x,
                                std::int64_t y);

/// The sum, mod 2^64, of cellPlacementHash over every cell's (id, placed,
/// x, y). Two designs hash equal iff their placements are byte-identical
/// (up to collisions), which is how the perf-regression harness proves
/// optimizations are quality-neutral; being a sum, it can be kept up to
/// date one cell at a time.
std::uint64_t placementHash(const Design& design);

}  // namespace mclg
