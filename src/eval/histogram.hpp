// Displacement histograms: bucketed per-cell displacement counts used by
// the Fig. 6 reproduction (bench/bench_fig6_maxdisp.cpp).
#pragma once

#include <string>
#include <vector>

#include "db/design.hpp"

namespace mclg {

struct DisplacementHistogram {
  /// Bucket upper bounds in row heights (last bucket is open-ended).
  std::vector<double> bounds;
  std::vector<int> counts;  // bounds.size() + 1 entries
  int total = 0;
  double maximum = 0.0;

  /// ASCII rendering, one bucket per line.
  std::string toString() const;
};

/// Histogram over movable placed cells; `type` filters to one cell type
/// (-1 = all). Default buckets: <=1, <=2, <=5, <=10, <=20, <=50, >50 rows.
DisplacementHistogram displacementHistogram(
    const Design& design, TypeId type = -1,
    std::vector<double> bounds = {1, 2, 5, 10, 20, 50});

}  // namespace mclg
