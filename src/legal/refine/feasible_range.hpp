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
#include <span>
#include <vector>

#include "db/design.hpp"
#include "db/segment_map.hpp"
#include "geometry/interval.hpp"

namespace mclg {

/// The §3.4 forbidden left-edge intervals of a design's cell types, without
/// the checkers' scan of every rail and IO pin per query. The rail
/// intervals of a type are row-independent, equal interval for interval to
/// verticalRailForbiddenX (eval/checkers.hpp) and computed on the type's
/// first query. The IO-pin intervals are kept unmerged, per (type, row) on
/// first query: the (signal pin, IO pin) x-intervals of ioPinOverlapX over
/// the IO pins that can reach the row (sorted by their lower edge, so a
/// fill visits only those). Merged, they are ioPinForbiddenX; counted at x,
/// they are countIoOverlaps. Filled lazily: use one index per thread.
class ForbiddenXIndex {
 public:
  explicit ForbiddenXIndex(const Design& design);

  const Design& design() const { return *design_; }

  /// verticalRailForbiddenX(design, type, y), for any y: sorted, disjoint.
  const std::vector<Interval>& rails(TypeId type) const {
    return typeData(type).rails;
  }
  /// The unmerged IO-pin intervals of `type` at bottom row y, in no order;
  /// their union is ioPinForbiddenX(design, type, y). Valid until the next
  /// query of a (type, row) not queried before.
  std::span<const Interval> ioIntervals(TypeId type, std::int64_t y) const {
    const IoRow& row = ioRow(type, y);
    return {ioOverlapPool_.data() + row.begin,
            static_cast<std::size_t>(row.end - row.begin)};
  }

  /// countIoOverlaps(design, type, x, y).
  int ioOverlaps(TypeId type, std::int64_t x, std::int64_t y) const {
    int count = 0;
    for (const Interval& iv : ioIntervals(type, y)) {
      if (iv.contains(x)) ++count;
    }
    return count;
  }

 private:
  struct TypeData {
    std::vector<Interval> rails;
    // The fine-grid y extent the type's pin shapes can cover, in either
    // orientation, relative to the cell's bottom edge.
    std::int64_t pinYlo = 0;
    std::int64_t pinYhi = 0;
  };
  const TypeData& typeData(TypeId type) const;

  /// The IO pins that can reach a pin of `type` at bottom row y: a
  /// contiguous stretch of ioByYlo_.
  std::span<const std::int32_t> ioCandidates(TypeId type,
                                             std::int64_t y) const;

  /// One (type, row) entry of the IO-overlap table: its intervals are
  /// ioOverlapPool_[begin, end); begin < 0 until first queried.
  struct IoRow {
    std::int32_t begin = -1;
    std::int32_t end = -1;
  };
  const IoRow& ioRow(TypeId type, std::int64_t y) const {
    if (!ioRows_.empty()) {
      const IoRow& row = ioRows_[static_cast<std::size_t>(
          type * design_->numRows + y)];
      if (row.begin >= 0) return row;
    }
    return fillIoRow(type, y);
  }
  const IoRow& fillIoRow(TypeId type, std::int64_t y) const;

  const Design* design_;
  mutable std::vector<std::optional<TypeData>> types_;
  std::vector<std::int32_t> ioByYlo_;  // IO pin indexes, by rect.ylo
  std::int64_t maxIoHeight_ = 0;
  mutable std::vector<IoRow> ioRows_;  // type-major, sized on first query
  mutable std::vector<Interval> ioOverlapPool_;
};

/// Allowed left-edge interval [lo, hi) for cell c at its current rows:
/// its segment, narrowed to the forbidden-interval-free stretch around x
/// when `routability` is given (nullptr limits only to the segment). The
/// rail intervals are binary-searched; the IO-pin intervals are clipped
/// unmerged, which gives the merged clip's range: x lies in a merged
/// interval iff it lies in one of its pieces, and the nearest edges left
/// and right of x are the same.
/// Returns an interval containing the current x (the placement is assumed
/// legal; if the cell currently sits on a rail conflict, the range degrades
/// to the single current position rather than legalizing the conflict).
Interval feasibleRange(const Design& design, const SegmentMap& segments,
                       CellId c, const ForbiddenXIndex* routability);

}  // namespace mclg
