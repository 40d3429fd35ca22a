// Displacement and wirelength metrics (paper Eqs. 1-2 and the HPWL term of
// the contest score).
#pragma once

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

/// Displacement of all movable placed cells from their GP positions.
DisplacementStats displacementStats(const Design& design);

/// Half-perimeter wirelength over all nets, in site units, using the current
/// legal positions (GP positions when useGp).
double hpwl(const Design& design, bool useGp);

/// One net's term of hpwl(): its half-perimeter in site units. hpwl() sums
/// this over the nets with two or more pins, in net order, so a caller that
/// caches the per-net terms and re-sums them the same way gets the same
/// double bit for bit.
double netHpwl(const Design& design, const Net& net, bool useGp);

/// HPWL increase ratio of the legal placement over the GP placement
/// (the S_hpwl term of Eq. 10); 0 when the design has no nets.
double hpwlIncreaseRatio(const Design& design);

/// FNV-1a hash of every cell's (placed, x, y) in cell-id order. Two designs
/// hash equal iff their placements are byte-identical, which is how the
/// perf-regression harness proves optimizations are quality-neutral.
std::uint64_t placementHash(const Design& design);

}  // namespace mclg
