// Feasible x-ranges for cells under routability constraints (paper §3.4).
//
// During the fixed-row-&-order optimization, each cell may only slide
// within the intersection of (a) its row segment (fence + blockages) and
// (b) the largest vertical-rail-clean interval around its current x, so the
// optimization cannot introduce new pin shorts or pin access violations.
// The paper encodes this by making every cell left- and right-bounded
// (C_L = C_R = C).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "db/design.hpp"
#include "db/segment_map.hpp"
#include "geometry/interval.hpp"

namespace mclg {

/// The §3.4 forbidden left-edge intervals of a design's cell types, equal
/// interval for interval to verticalRailForbiddenX / ioPinForbiddenX
/// (eval/checkers.hpp) but without their scan of every rail and IO pin per
/// query: the rail intervals of a type are row-independent and computed on
/// its first query, and the IO pins are sorted by their lower edge, so a
/// query visits only the few pins that can reach the cell's rows. Filled
/// lazily: use one index per thread.
class ForbiddenXIndex {
 public:
  explicit ForbiddenXIndex(const Design& design);

  /// verticalRailForbiddenX(design, type, y), for any y.
  const std::vector<Interval>& rails(TypeId type) const {
    return typeData(type).rails;
  }
  /// ioPinForbiddenX(design, type, y).
  std::vector<Interval> io(TypeId type, std::int64_t y) const;

 private:
  struct TypeData {
    std::vector<Interval> rails;
    // The fine-grid y extent the type's pin shapes can cover, in either
    // orientation, relative to the cell's bottom edge.
    std::int64_t pinYlo = 0;
    std::int64_t pinYhi = 0;
  };
  const TypeData& typeData(TypeId type) const;

  const Design* design_;
  mutable std::vector<std::optional<TypeData>> types_;
  std::vector<std::int32_t> ioByYlo_;  // IO pin indexes, by rect.ylo
  std::int64_t maxIoHeight_ = 0;
};

/// Allowed left-edge interval [lo, hi) for cell c at its current rows:
/// its segment, narrowed to the forbidden-interval-free stretch around x
/// when `routability` is given (nullptr limits only to the segment).
/// Returns an interval containing the current x (the placement is assumed
/// legal; if the cell currently sits on a rail conflict, the range degrades
/// to the single current position rather than legalizing the conflict).
Interval feasibleRange(const Design& design, const SegmentMap& segments,
                       CellId c, const ForbiddenXIndex* routability);

}  // namespace mclg
