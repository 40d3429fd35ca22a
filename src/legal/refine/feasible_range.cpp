#include "legal/refine/feasible_range.hpp"

#include <algorithm>
#include <iterator>

#include "eval/checkers.hpp"
#include "util/assert.hpp"

namespace mclg {

ForbiddenXIndex::ForbiddenXIndex(const Design& design)
    : design_(&design),
      types_(static_cast<std::size_t>(design.numTypes())) {
  for (std::size_t i = 0; i < design.ioPins.size(); ++i) {
    ioByYlo_.push_back(static_cast<std::int32_t>(i));
    maxIoHeight_ = std::max(maxIoHeight_, design.ioPins[i].rect.height());
  }
  std::sort(ioByYlo_.begin(), ioByYlo_.end(),
            [&](std::int32_t a, std::int32_t b) {
              return design.ioPins[static_cast<std::size_t>(a)].rect.ylo <
                     design.ioPins[static_cast<std::size_t>(b)].rect.ylo;
            });
}

const ForbiddenXIndex::TypeData& ForbiddenXIndex::typeData(TypeId t) const {
  std::optional<TypeData>& slot = types_[static_cast<std::size_t>(t)];
  if (slot) return *slot;
  TypeData& data = slot.emplace();
  data.rails = verticalRailForbiddenX(*design_, t, 0);
  const CellType& type = design_->types[static_cast<std::size_t>(t)];
  for (const PinShape& pin : type.pins) {
    for (const Orient orient : {Orient::N, Orient::FS}) {
      const Rect shape = pin.rectInOrient(orient, type.height);
      data.pinYlo = std::min(data.pinYlo, shape.ylo);
      data.pinYhi = std::max(data.pinYhi, shape.yhi);
    }
  }
  return data;
}

std::span<const std::int32_t> ForbiddenXIndex::ioCandidates(
    TypeId type, std::int64_t y) const {
  const TypeData& data = typeData(type);
  const std::int64_t fy = y * Design::kFine;
  // Candidates: IO pins overlapping the fine rows any pin of the type can
  // cover here, i.e. ylo < fy + pinYhi and yhi > fy + pinYlo (so ylo >
  // fy + pinYlo - maxIoHeight): a contiguous stretch of ioByYlo_.
  const auto ylo = [&](std::int32_t i) {
    return design_->ioPins[static_cast<std::size_t>(i)].rect.ylo;
  };
  const auto end = std::lower_bound(
      ioByYlo_.begin(), ioByYlo_.end(), fy + data.pinYhi,
      [&](std::int32_t i, std::int64_t v) { return ylo(i) < v; });
  const auto begin = std::upper_bound(
      ioByYlo_.begin(), end, fy + data.pinYlo - maxIoHeight_,
      [&](std::int64_t v, std::int32_t i) { return v < ylo(i); });
  return {begin, end};
}

const ForbiddenXIndex::IoRow& ForbiddenXIndex::fillIoRow(TypeId type,
                                                         std::int64_t y) const {
  if (ioRows_.empty()) {
    ioRows_.resize(static_cast<std::size_t>(design_->numTypes()) *
                   static_cast<std::size_t>(design_->numRows));
  }
  IoRow& row = ioRows_[static_cast<std::size_t>(type * design_->numRows + y)];
  const std::vector<Interval> overlaps =
      ioPinOverlapX(*design_, type, y, ioCandidates(type, y));
  row.begin = static_cast<std::int32_t>(ioOverlapPool_.size());
  ioOverlapPool_.insert(ioOverlapPool_.end(), overlaps.begin(), overlaps.end());
  row.end = static_cast<std::int32_t>(ioOverlapPool_.size());
  return row;
}

Interval feasibleRange(const Design& design, const SegmentMap& segments,
                       CellId c, const ForbiddenXIndex* routability) {
  const auto& cell = design.cells[c];
  MCLG_ASSERT(cell.placed && !cell.fixed, "feasibleRange needs a placed cell");
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  const Interval seg =
      segments.slideRange(cell.y, h, cell.x, w, cell.fence);
  // Left-edge bounds from the segment (inclusive hi).
  std::int64_t lo = seg.lo;
  std::int64_t hi = seg.hi - w;
  if (hi < lo) return {cell.x, cell.x + 1};  // degenerate; stay put

  if (routability != nullptr) {
    // §3.4: the movement range is the largest interval around the current x
    // that is clean of vertical-rail *and* IO-pin conflicts; a cell that
    // already sits on a conflict is frozen.
    const std::vector<Interval>& rails = routability->rails(cell.type);
    const auto right = std::partition_point(
        rails.begin(), rails.end(),
        [&](const Interval& iv) { return iv.hi <= cell.x; });
    if (right != rails.begin()) lo = std::max(lo, std::prev(right)->hi);
    if (right != rails.end()) {
      if (right->lo <= cell.x) return {cell.x, cell.x + 1};
      hi = std::min(hi, right->lo - 1);
    }
    for (const Interval& iv : routability->ioIntervals(cell.type, cell.y)) {
      if (iv.hi <= cell.x) {
        lo = std::max(lo, iv.hi);
      } else if (iv.lo > cell.x) {
        hi = std::min(hi, iv.lo - 1);
      } else {
        return {cell.x, cell.x + 1};
      }
    }
  }
  lo = std::min(lo, cell.x);
  hi = std::max(hi, cell.x);
  return {lo, hi + 1};  // half-open like the rest of the library
}

}  // namespace mclg
