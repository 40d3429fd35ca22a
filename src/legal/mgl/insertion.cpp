#include "legal/mgl/insertion.hpp"

#include <algorithm>
#include <cmath>

#include "eval/checkers.hpp"
#include "geometry/disp_curve.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mclg {
namespace {

// Disabled cost is the single relaxed load in metricsEnabled(); the registry
// lookup only happens when metrics are on.
inline void bumpReject(const char* name) {
  if (!obs::metricsEnabled()) return;
  obs::counter(name).add();
}

}  // namespace

int InsertionSearcher::edgeSpacing(int rightEdgeClass,
                                   int leftEdgeClass) const {
  return config_.respectEdgeSpacing
             ? state_.design().edgeSpacing(rightEdgeClass, leftEdgeClass)
             : 0;
}

int InsertionSearcher::spacingBetween(CellId left, CellId right) const {
  return config_.respectEdgeSpacing
             ? state_.design().spacingBetween(left, right)
             : 0;
}

bool InsertionSearcher::isLocal(CellId c, const Rect& window) const {
  const auto& design = state_.design();
  const auto& cell = design.cells[c];
  if (cell.fixed || !cell.placed) return false;
  const Rect box{cell.x, cell.y, cell.x + design.widthOf(c),
                 cell.y + design.heightOf(c)};
  return window.containsRect(box);
}

void InsertionSearcher::beginWindow() {
  if (arena_ == nullptr) {
    ownArena_ = std::make_unique<SearchArena>();
    arena_ = ownArena_.get();
  }
  ++arena_->windowEpoch;
  const auto& design = state_.design();
  if (arena_->rowSnaps.size() < static_cast<std::size_t>(design.numRows)) {
    arena_->rowSnaps.resize(static_cast<std::size_t>(design.numRows));
  }
  if (arena_->cellSlots.size() < static_cast<std::size_t>(design.numCells())) {
    arena_->cellSlots.resize(static_cast<std::size_t>(design.numCells()));
  }
  if (config_.routability) arena_->forbiddenFor(design);
  spanIndex_.clear();
  dupSkipped_ = 0;
}

void InsertionSearcher::SeenSet::clear() {
  for (const std::uint32_t i : used_) slots_[i] = kEmpty;
  used_.clear();
}

bool InsertionSearcher::SeenSet::insert(std::uint64_t key) {
  if (2 * (used_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the high half of key * 2^64/phi mixes the packed
  // (x, y) pair, whose low bits are the row.
  std::size_t i =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  while (slots_[i] != kEmpty) {
    if (slots_[i] == key) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = key;
  used_.push_back(static_cast<std::uint32_t>(i));
  return true;
}

void InsertionSearcher::SeenSet::grow() {
  std::vector<std::uint64_t> keys;
  keys.reserve(used_.size());
  for (const std::uint32_t i : used_) keys.push_back(slots_[i]);
  slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
  used_.clear();
  for (const std::uint64_t key : keys) insert(key);
}

InsertionSearcher::CellSlot& InsertionSearcher::windowSlot(CellId j) const {
  CellSlot& slot = arena_->cellSlots[static_cast<std::size_t>(j)];
  if (slot.windowEpoch != arena_->windowEpoch) {
    slot.windowEpoch = arena_->windowEpoch;
    slot.spanBase = -1;
    slot.hasCurve = false;
    slot.leftState = Reach::Unknown;
    slot.rightState = Reach::Unknown;
  }
  return slot;
}

Interval InsertionSearcher::slideRange(CellId j) const {
  const auto& design = state_.design();
  const auto& cell = design.cells[j];
  return segments_.slideRange(cell.y, design.heightOf(j), cell.x,
                              design.widthOf(j), cell.fence);
}

std::int64_t InsertionSearcher::pushReach(CellId j, bool left,
                                          const Rect& window) const {
  const auto& design = state_.design();
  auto stateOf = [left](CellSlot& slot) -> Reach& {
    return left ? slot.leftState : slot.rightState;
  };
  // Depth-first over the neighbour DAG (a left neighbour lies strictly
  // left, so there are no cycles). A cell is expanded on its first visit,
  // which stacks its unresolved local neighbours, and resolved on its
  // second, when all of them are Known.
  auto& stack = reachStack_;
  stack.clear();
  stack.push_back(j);
  while (!stack.empty()) {
    const CellId k = stack.back();
    CellSlot& slot = windowSlot(k);
    Reach& state = stateOf(slot);
    if (state == Reach::Known) {
      stack.pop_back();
      continue;
    }
    const bool firstVisit = state == Reach::Unknown;
    state = Reach::Open;
    const auto& cell = design.cells[k];
    const int wk = design.widthOf(k);
    // The tightest bound the neighbours impose.
    std::int64_t need = left ? std::numeric_limits<std::int64_t>::min()
                             : std::numeric_limits<std::int64_t>::max();
    bool ready = true;
    for (std::int64_t r = cell.y; r < cell.y + design.heightOf(k); ++r) {
      const RowSnap& snap = rowSnap(r, window);
      const auto i = static_cast<std::size_t>(snapIndex(snap, k, r));
      if (left ? i == 0 : i + 1 == snap.cell.size()) continue;
      const std::size_t ni = left ? i - 1 : i + 1;
      const CellId n = snap.cell[ni];
      std::int64_t reachN = snap.x[ni];  // a non-local cell cannot move
      if (snap.local[ni]) {
        CellSlot& nslot = windowSlot(n);
        if (stateOf(nslot) != Reach::Known) {
          if (firstVisit) stack.push_back(n);
          ready = false;
          continue;
        }
        reachN = left ? nslot.leftReach : nslot.rightReach;
      }
      need = left ? std::max(need, reachN + snap.width[ni] +
                                       spacingBetween(n, k))
                  : std::min(need, reachN - wk - spacingBetween(k, n));
    }
    if (!ready) {
      MCLG_ASSERT(firstVisit, "push-reach neighbour graph has a cycle");
      continue;
    }
    const Interval slide = slideRange(k);
    if (left) {
      slot.leftReach = std::min(cell.x, std::max(slide.lo, need));
    } else {
      slot.rightReach = std::max(cell.x, std::min(slide.hi - wk, need));
    }
    state = Reach::Known;
    stack.pop_back();
  }
  const CellSlot& slot = arena_->cellSlots[static_cast<std::size_t>(j)];
  return left ? slot.leftReach : slot.rightReach;
}

const InsertionSearcher::RowSnap& InsertionSearcher::buildRowSnap(
    std::int64_t r, const Rect& window) const {
  RowSnap& snap = arena_->rowSnaps[static_cast<std::size_t>(r)];
  snap.epoch = arena_->windowEpoch;
  snap.winBegin = 0;
  snap.x.clear();
  snap.center.clear();
  snap.cell.clear();
  snap.width.clear();
  snap.leftEdge.clear();
  snap.rightEdge.clear();
  snap.local.clear();
  const auto& design = state_.design();
  const auto& rowMap = state_.rowCells(r);
  // Cells left of the window are never local, so a left chain stops at the
  // first one: keep a single wall candidate below window.xlo, everything in
  // [window.xlo, window.xhi), and a single wall candidate at/after
  // window.xhi (same argument on the right).
  auto it = rowMap.lower_bound(window.xlo);
  if (it != rowMap.begin()) {
    --it;
    snap.winBegin = 1;
  }
  for (; it != rowMap.end(); ++it) {
    const CellId j = it->second;
    const CellType& type = design.typeOf(j);
    const int wj = type.width;
    const bool local = isLocal(j, window);
    if (local) {
      // Record the cell's position in this row for the commit simulation.
      CellSlot& slot = windowSlot(j);
      if (slot.spanBase < 0) {
        slot.spanBase = static_cast<std::int32_t>(spanIndex_.size());
        spanIndex_.resize(spanIndex_.size() +
                              static_cast<std::size_t>(design.heightOf(j)),
                          -1);
      }
      spanIndex_[static_cast<std::size_t>(slot.spanBase +
                                          (r - design.cells[j].y))] =
          static_cast<std::int32_t>(snap.x.size());
    }
    snap.x.push_back(it->first);
    snap.cell.push_back(j);
    snap.width.push_back(wj);
    snap.leftEdge.push_back(type.leftEdge);
    snap.rightEdge.push_back(type.rightEdge);
    snap.center.push_back(static_cast<double>(it->first) + wj * 0.5);
    snap.local.push_back(local ? 1 : 0);
    if (it->first >= window.xhi) break;
  }
  return snap;
}

std::int32_t InsertionSearcher::snapIndex(const RowSnap& snap, CellId j,
                                          std::int64_t r) const {
  const CellSlot& slot = arena_->cellSlots[static_cast<std::size_t>(j)];
  MCLG_ASSERT(slot.windowEpoch == arena_->windowEpoch && slot.spanBase >= 0,
              "pushed cell missing from the window snapshots");
  const std::int32_t i = spanIndex_[static_cast<std::size_t>(
      slot.spanBase + (r - state_.design().cells[j].y))];
  MCLG_ASSERT(i >= 0 && snap.cell[static_cast<std::size_t>(i)] == j,
              "occupancy out of sync in commit");
  return i;
}

const InsertionSearcher::CellSlot& InsertionSearcher::curveData(
    CellId j) const {
  CellSlot& d = windowSlot(j);
  if (d.hasCurve) {
    ++curveHits_;
    return d;
  }
  ++curveMisses_;
  d.hasCurve = true;
  const auto& design = state_.design();
  const auto& cell = design.cells[j];
  d.cur = static_cast<double>(cell.x);
  d.gp = config_.gpObjective ? cell.gpX : d.cur;
  d.scale = design.siteWidthFactor *
            (config_.contestWeights ? design.metricWeight(j) : 1.0);
  return d;
}

bool InsertionSearcher::walkChains(CellId c, const Rect& window,
                                   std::int64_t y, const RowCtx* ctx,
                                   std::int64_t& lo, std::int64_t& hi) const {
  const auto& design = state_.design();
  const auto& target = design.cells[c];
  const auto& type = design.typeOf(c);
  const int h = type.height;
  const int w = type.width;

  lo = window.xlo;
  hi = window.xhi - w;

  // Chain entries, deduplicated across rows for multi-row local cells (the
  // most constraining row's offset wins). A cell's step slot holds its entry
  // index for this seed.
  auto& entries = entryScratch_;
  entries.clear();
  const std::uint64_t seedEpoch = ++arena_->stepEpoch;
  auto addEntry = [&](CellId j, std::int64_t off, bool left) {
    CellSlot& slot = arena_->cellSlots[static_cast<std::size_t>(j)];
    if (slot.stepEpoch != seedEpoch) {
      slot.stepEpoch = seedEpoch;
      slot.step = static_cast<std::int64_t>(entries.size());
      entries.push_back({j, off, left});
    } else if (off > entries[static_cast<std::size_t>(slot.step)].off) {
      entries[static_cast<std::size_t>(slot.step)].off = off;
    }
  };

  for (std::int64_t r = y; r < y + h; ++r) {
    const RowCtx& rc = ctx[r - y];
    const Segment* seg = rc.seg;
    if (seg == nullptr || seg->fence != target.fence) {
      bumpReject("mgl.insert.reject.fence");
      return false;
    }
    const std::int64_t rowLo = std::max(seg->x.lo, window.xlo);
    const std::int64_t rowHi = std::min(seg->x.hi, window.xhi);
    const RowSnap& snap = *rc.snap;

    // Left chain: cells with center <= seedCenter (snapshot indices below
    // the partition boundary), walked right-to-left.
    {
      std::int64_t acc = 0;
      int prevEdge = type.leftEdge;  // left edge of the chain's last cell
      bool wallFound = false;
      for (std::int32_t i = rc.boundary - 1; i >= 0; --i) {
        if (snap.x[i] < seg->x.lo) break;  // outside the segment
        const int sp = edgeSpacing(snap.rightEdge[i], prevEdge);
        if (snap.local[i]) {
          const std::int64_t off = acc + sp + snap.width[i];
          addEntry(snap.cell[i], off, /*left=*/true);
          acc = off;
          prevEdge = snap.leftEdge[i];
        } else {
          lo = std::max(lo, snap.x[i] + snap.width[i] + sp + acc);
          wallFound = true;
          break;
        }
      }
      if (!wallFound) lo = std::max(lo, rowLo + acc);
    }
    // Right chain: cells with center > seedCenter (snapshot indices from the
    // boundary up), walked left-to-right.
    {
      std::int64_t acc = w;
      int prevEdge = type.rightEdge;  // right edge of the chain's last cell
      bool wallFound = false;
      const auto n = static_cast<std::int32_t>(snap.x.size());
      for (std::int32_t i = rc.boundary; i < n && snap.x[i] < seg->x.hi; ++i) {
        const int sp = edgeSpacing(prevEdge, snap.leftEdge[i]);
        if (snap.local[i]) {
          const std::int64_t off = acc + sp;
          addEntry(snap.cell[i], off, /*left=*/false);
          acc = off + snap.width[i];
          prevEdge = snap.rightEdge[i];
        } else {
          // Chain must fit left of the wall: x + acc + sp <= j.x.
          hi = std::min(hi, snap.x[i] - sp - acc);
          wallFound = true;
          break;
        }
      }
      if (!wallFound) hi = std::min(hi, rowHi - acc);
    }
    if (lo > hi) return false;
  }
  return true;
}

void InsertionSearcher::reachInterval(CellId c, const Rect& window,
                                      const RowCtx* ctx, std::int64_t lo,
                                      std::int64_t hi, std::int64_t& reachLo,
                                      std::int64_t& reachHi) const {
  const auto& design = state_.design();
  const auto& type = design.typeOf(c);
  reachLo = lo;
  reachHi = hi;
  // The immediate neighbours sit on either side of the seed's partition
  // boundary (x order and center order agree in a legal row). The
  // placement does not change before the commit, so the window's row
  // snapshots hold every cell a chain can reach: chains continue only
  // through local cells, which lie inside the window.
  for (int k = 0; k < type.height && reachLo <= reachHi; ++k) {
    const RowSnap& snap = *ctx[k].snap;
    const auto b = static_cast<std::size_t>(ctx[k].boundary);
    // A boundary at the left wall makes walkChains' right chain start at a
    // non-local cell and leave no room, so it never gets here; any other
    // left neighbour is in the snapshot.
    MCLG_ASSERT(b > 0 || snap.winBegin == 0,
                "left neighbour outside the window snapshot");
    // The target at x asks its left neighbour j for a left edge at most
    // x - gap. That moves j only if x < x_j + gap, and the move is met iff
    // it stays within j's left reach (x_j itself if j is non-local).
    if (b > 0) {
      const std::size_t i = b - 1;
      const std::int64_t gap =
          snap.width[i] + edgeSpacing(snap.rightEdge[i], type.leftEdge);
      if (snap.x[i] + gap > reachLo) {
        const std::int64_t reach =
            snap.local[i] ? pushReach(snap.cell[i], true, window) : snap.x[i];
        reachLo = std::max(reachLo, reach + gap);
      }
    }
    // Mirrored: the right neighbour must let the target end at x + gap.
    if (b < snap.cell.size()) {
      const std::int64_t gap =
          type.width + edgeSpacing(type.rightEdge, snap.leftEdge[b]);
      if (snap.x[b] - gap < reachHi) {
        const std::int64_t reach =
            snap.local[b] ? pushReach(snap.cell[b], false, window) : snap.x[b];
        reachHi = std::min(reachHi, reach - gap);
      }
    }
  }
}

const Interval* InsertionSearcher::railAt(TypeId type, std::int64_t x) const {
  for (const auto& iv : forbidden().rails(type)) {
    if (iv.contains(x)) return &iv;
  }
  return nullptr;
}

bool InsertionSearcher::railDodgeSafe(TypeId type, std::int64_t lo,
                                      std::int64_t hi) const {
  if (!config_.routability) return true;
  for (const auto& iv : forbidden().rails(type)) {
    if (iv.hi <= lo || iv.lo > hi) continue;  // misses [lo, hi]
    const std::int64_t leftAlt = iv.lo - 1;
    const std::int64_t rightAlt = iv.hi;
    const bool leftOk = leftAlt >= lo && railAt(type, leftAlt) == nullptr;
    const bool rightOk = rightAlt <= hi && railAt(type, rightAlt) == nullptr;
    if (!leftOk && !rightOk) return false;
  }
  return true;
}

double InsertionSearcher::costLowerBound(CellId c, std::int64_t y,
                                         std::int64_t lo,
                                         std::int64_t hi) const {
  const auto& design = state_.design();
  const auto& target = design.cells[c];
  // IO pins only add cost, unless a caller prices them negative.
  if (config_.routability && config_.ioPenalty < 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  const double swf = design.siteWidthFactor;
  const double wT = config_.contestWeights ? design.metricWeight(c) : 1.0;
  const auto dlo = static_cast<double>(lo);
  const auto dhi = static_cast<double>(hi);
  const double reach = std::max(std::abs(dlo), std::abs(dhi));
  // The target's own terms: its row is fixed, its x lies in [lo, hi].
  const double yCost = std::abs(static_cast<double>(y) - target.gpY) * wT;
  const double xGap = std::max({0.0, dlo - target.gpX, target.gpX - dhi});
  double bound = yCost + swf * wT * xGap;
  // Every term the minimization adds or subtracts is at most `magnitude`
  // in absolute value, so its rounding error stays far below 1e-9 of it.
  double magnitude = 1.0 + yCost + swf * wT * (std::abs(target.gpX) + reach);
  // A chain cell's term is its displacement change: a left push only moves
  // it left, to no less than lo - off, so it gains at most the part of
  // that move which ends at its GP (mirrored on the right).
  for (const auto& entry : entryScratch_) {
    const CellSlot& cd = curveData(entry.cell);
    const auto off = static_cast<double>(entry.off);
    const double gain = entry.left ? cd.cur - std::max(cd.gp, dlo - off)
                                   : std::min(cd.gp, dhi + off) - cd.cur;
    bound -= cd.scale * std::max(0.0, gain);
    magnitude +=
        cd.scale * (std::abs(cd.cur) + std::abs(cd.gp) + off + reach);
  }
  return bound - 1e-9 * magnitude;
}

bool InsertionSearcher::minimizeCurves(CellId c, std::int64_t y,
                                       std::int64_t lo, std::int64_t hi,
                                       Candidate& out) const {
  const auto& design = state_.design();
  const auto& target = design.cells[c];

  // Displacement curves (Fig. 4) summed over the target and local cells.
  // Per-cell curve parameters come from the window-epoch slots.
  const double swf = design.siteWidthFactor;
  CurveSum& sum = sumScratch_;
  sum.clear();
  const double wT =
      config_.contestWeights ? design.metricWeight(c) : 1.0;
  sum.add(DispCurve::targetV(target.gpX).scaled(swf * wT));
  sum.add(DispCurve::constant(
      std::abs(static_cast<double>(y) - target.gpY) * wT));
  // Local-cell curves measure absolute displacement from GP; subtracting
  // each cell's *current* displacement turns the total into the change in
  // regional displacement caused by this insertion, which is comparable
  // across insertion points with different local-cell sets (and is exactly
  // zero-based in MLL mode, where gp == cur).
  double baseline = 0.0;
  for (const auto& entry : entryScratch_) {
    const CellSlot& cd = curveData(entry.cell);
    baseline += cd.scale * std::abs(cd.cur - cd.gp);
    sum.add(entry.left
                ? DispCurve::leftPush(cd.cur, cd.gp,
                                      static_cast<double>(entry.off))
                      .scaled(cd.scale)
                : DispCurve::rightPush(cd.cur, cd.gp,
                                       static_cast<double>(entry.off))
                      .scaled(cd.scale));
  }
  if (obs::metricsEnabled()) {
    obs::counter("mgl.disp_curve.breakpoints").add(sum.totalBreakpoints());
    obs::counter("mgl.disp_curve.minimized").add();
  }
  auto best = sum.minimizeOnSites(lo, hi);
  if (!best.feasible) return false;
  best.value -= baseline;

  if (config_.routability) {
    // Dodge vertical-rail conflicts: move to the nearest clean site. The
    // forbidden intervals depend only on the type.
    if (const Interval* iv = railAt(target.type, best.x)) {
      const std::int64_t leftAlt = iv->lo - 1;
      const std::int64_t rightAlt = iv->hi;
      double bestVal = 0.0;
      std::int64_t bestX = 0;
      bool found = false;
      if (leftAlt >= lo && railAt(target.type, leftAlt) == nullptr) {
        bestVal = sum.value(static_cast<double>(leftAlt));
        bestX = leftAlt;
        found = true;
      }
      if (rightAlt <= hi && railAt(target.type, rightAlt) == nullptr) {
        const double v = sum.value(static_cast<double>(rightAlt));
        if (!found || v < bestVal) {
          bestVal = v;
          bestX = rightAlt;
          found = true;
        }
      }
      if (!found) return false;
      best.x = bestX;
      best.value = bestVal - baseline;
    }
    // IO-pin overlap penalty (§3.4: penalties, not hard rejections).
    const int ioOverlaps = forbidden().ioOverlaps(target.type, best.x, y);
    best.value += ioOverlaps * config_.ioPenalty * wT;
  }

  out.x = best.x;
  out.cost = best.value;
  return true;
}

void InsertionSearcher::evaluateDoomed(CellId c, const Rect& window,
                                       DoomedSeed& d) {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  const bool walked =
      walkChains(c, window, d.cand.y, &doomedCtx_[d.ctx], lo, hi);
  MCLG_ASSERT(walked && lo == d.lo && hi == d.hi,
              "doomed seed re-walk differs from its first walk");
  const bool ok = minimizeCurves(c, d.cand.y, lo, hi, d.cand);
  MCLG_ASSERT(ok, "rail dodge failed on a seed admitted as rail-safe");
  d.exact = true;
  ++doomedEvaluated_;
}

void InsertionSearcher::evaluateRow(CellId c, const Rect& window,
                                    std::int64_t y) {
  const auto& design = state_.design();
  const auto& target = design.cells[c];
  const auto& type = design.typeOf(c);
  if (!design.parityOk(target.type, y)) {
    bumpReject("mgl.insert.reject.parity");
    return;
  }
  if (y < window.ylo || y + type.height > window.yhi) return;
  if (config_.routability &&
      hasHorizontalRailConflict(design, target.type, y)) {
    bumpReject("mgl.insert.reject.pin_access");
    return;
  }

  // Candidate seeds: the GP x plus the gap edges of every cell crossing the
  // row span, plus segment boundaries. Cell edges come from the row
  // snapshots, not the occupancy rows.
  auto& seeds = seedScratch_;
  seeds.clear();
  const auto gpSeed = static_cast<std::int64_t>(std::lround(target.gpX));
  seeds.push_back(std::clamp(gpSeed, window.xlo, window.xhi - type.width));
  for (std::int64_t r = y; r < y + type.height; ++r) {
    for (const auto& seg : segments_.row(r)) {
      if (seg.fence != target.fence) continue;
      if (seg.x.hi <= window.xlo || seg.x.lo >= window.xhi) continue;
      seeds.push_back(std::max(seg.x.lo, window.xlo));
      seeds.push_back(std::min(seg.x.hi, window.xhi) - type.width);
    }
    const RowSnap& snap = rowSnap(r, window);
    const auto n = static_cast<std::int32_t>(snap.x.size());
    for (std::int32_t i = snap.winBegin; i < n && snap.x[i] < window.xhi;
         ++i) {
      seeds.push_back(snap.x[i] + snap.width[i]);  // right after the cell
      seeds.push_back(snap.x[i] - type.width);     // right before the cell
    }
  }
  for (auto& seed : seeds) {
    seed = std::clamp(seed, window.xlo, window.xhi - type.width);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  if (static_cast<int>(seeds.size()) > config_.maxSeedsPerRow) {
    // Keep the seeds nearest the GP x; ties resolve left-first so the kept
    // set never depends on library internals. In a sorted unique list they
    // form one run around the GP x: grow it outward from there.
    const auto k = static_cast<std::size_t>(config_.maxSeedsPerRow);
    auto lo = static_cast<std::size_t>(
        std::lower_bound(seeds.begin(), seeds.end(), gpSeed) - seeds.begin());
    auto hi = lo;  // the run is seeds[lo, hi)
    while (hi - lo < k) {
      const bool takeLeft =
          lo > 0 &&
          (hi == seeds.size() || gpSeed - seeds[lo - 1] <= seeds[hi] - gpSeed);
      if (takeLeft) {
        --lo;
      } else {
        ++hi;
      }
    }
    seeds.erase(seeds.begin() + static_cast<std::ptrdiff_t>(hi), seeds.end());
    seeds.erase(seeds.begin(), seeds.begin() + static_cast<std::ptrdiff_t>(lo));
  }

  // Per-seed partition contexts. Adjacent seeds that induce the same
  // (segment, boundary) on every row of the span yield bit-identical
  // evaluations, so only the first of each run is evaluated; skipped
  // successes still count toward the window's candidate total (dupSkipped_)
  // so the expansion early-break sees the same numbers as before. The seeds
  // ascend, so each row's boundary and segment come from a cursor that
  // starts at the first seed's and only moves right.
  const int h = type.height;
  auto& cursors = rowCursorScratch_;
  cursors.clear();
  const double firstCenter =
      static_cast<double>(seeds.front()) + type.width * 0.5;
  for (std::int64_t r = y; r < y + h; ++r) {
    RowCursor cur;
    cur.snap = &rowSnap(r, window);
    cur.segs = &segments_.row(r);
    cur.boundary = static_cast<std::int32_t>(
        std::upper_bound(cur.snap->center.begin(), cur.snap->center.end(),
                         firstCenter) -
        cur.snap->center.begin());
    cursors.push_back(cur);
  }
  auto& ctx = rowCtxScratch_;
  auto& prev = prevRowCtxScratch_;
  prev.clear();
  bool prevOk = false;
  for (const auto seed : seeds) {
    const double seedCenter = static_cast<double>(seed) + type.width * 0.5;
    ctx.clear();
    for (RowCursor& cur : cursors) {
      const auto& center = cur.snap->center;
      const auto n = static_cast<std::int32_t>(center.size());
      while (cur.boundary < n && center[cur.boundary] <= seedCenter) {
        ++cur.boundary;
      }
      const auto& segs = *cur.segs;
      while (cur.segEnd < segs.size() && segs[cur.segEnd].x.lo <= seed) {
        ++cur.segEnd;
      }
      // SegmentMap::find(r, seed): the last segment starting at or left of
      // the seed, if it contains it.
      const Segment* seg = cur.segEnd > 0 ? &segs[cur.segEnd - 1] : nullptr;
      if (seg != nullptr && !seg->x.contains(seed)) seg = nullptr;
      ctx.push_back({cur.snap, seg, cur.boundary});
    }
    bool same = prev.size() == ctx.size();
    for (std::size_t i = 0; same && i < ctx.size(); ++i) {
      same = ctx[i].seg == prev[i].seg && ctx[i].boundary == prev[i].boundary;
    }
    if (same) {
      if (prevOk) ++dupSkipped_;
      continue;
    }
    prevOk = evaluateSeed(c, window, y, seed);
    std::swap(ctx, prev);
  }
}

bool InsertionSearcher::evaluateSeed(CellId c, const Rect& window,
                                     std::int64_t y, std::int64_t seed) {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  const RowCtx* ctx = rowCtxScratch_.data();
  if (!walkChains(c, window, y, ctx, lo, hi)) return false;
  Candidate cand;
  cand.y = y;
  cand.seed = seed;
  reachInterval(c, window, ctx, lo, hi, cand.reachLo, cand.reachHi);
  if (cand.reachLo <= cand.reachHi) {
    if (!minimizeCurves(c, y, lo, hi, cand)) return false;
    candidateScratch_.push_back(cand);
    return true;
  }
  // Doomed: no x in [lo, hi] can commit. It is still a candidate iff the
  // curve minimization would succeed, which is certain unless the rail
  // dodge could fail; then that is settled here and now.
  ++doomedSeeds_;
  DoomedSeed d;
  d.cand = cand;
  d.lo = lo;
  d.hi = hi;
  d.ctx = doomedCtx_.size();
  doomedCtx_.insert(doomedCtx_.end(), rowCtxScratch_.begin(),
                    rowCtxScratch_.end());
  if (railDodgeSafe(state_.design().cells[c].type, lo, hi)) {
    d.lowerBound = costLowerBound(c, y, lo, hi);
  } else {
    ++doomedEvaluated_;
    if (!minimizeCurves(c, y, lo, hi, d.cand)) {
      doomedCtx_.resize(d.ctx);
      return false;
    }
    d.exact = true;
  }
  doomedScratch_.push_back(d);
  return true;
}

bool InsertionSearcher::tryInsert(CellId c, const Rect& window) {
  const auto& design = state_.design();
  const auto& target = design.cells[c];
  MCLG_ASSERT(!target.placed && !target.fixed, "target must be unplaced");
  bumpReject("mgl.insert.attempted");
  const int h = design.heightOf(c);
  beginWindow();

  // Doomed seeds are candidates too: they count toward every total below
  // and take part in every ordering decision, but each decision reads a
  // doomed seed's exact cost only when a lower bound cannot settle it, so
  // the search commits exactly where evaluating every seed would.
  auto& candidates = candidateScratch_;
  auto& doomed = doomedScratch_;
  candidates.clear();
  doomed.clear();
  doomedCtx_.clear();
  const std::int64_t yLo = std::max<std::int64_t>(0, window.ylo);
  const std::int64_t yHi = std::min(window.yhi - h, design.numRows - h);
  // Visit rows by distance from the GP row. Large (expanded) windows can
  // cover hundreds of rows; distant rows pay their y-distance in every
  // candidate, so once enough candidates exist AND the y-cost of the next
  // row alone exceeds the best found cost (plus a margin for the rare
  // negative pull of type C/D curves), further rows cannot win. Skipped
  // duplicate seeds count toward the candidate total.
  const auto gpRow = static_cast<std::int64_t>(std::lround(target.gpY));
  const double wT =
      config_.contestWeights ? design.metricWeight(c) : 1.0;
  // The least cost of the candidates with a known cost, and the least lower
  // bound of the doomed seeds without one.
  double bestCost = std::numeric_limits<double>::infinity();
  double bestBound = std::numeric_limits<double>::infinity();
  for (std::int64_t dy = 0;; ++dy) {
    const std::int64_t below = gpRow - dy;
    const std::int64_t above = gpRow + dy;
    if (below < yLo && above > yHi) break;
    const std::size_t sizeBefore = candidates.size();
    const std::size_t doomedBefore = doomed.size();
    if (below >= yLo && below <= yHi) evaluateRow(c, window, below);
    if (dy > 0 && above >= yLo && above <= yHi) {
      evaluateRow(c, window, above);
    }
    for (std::size_t i = sizeBefore; i < candidates.size(); ++i) {
      bestCost = std::min(bestCost, candidates[i].cost);
    }
    for (std::size_t i = doomedBefore; i < doomed.size(); ++i) {
      if (doomed[i].exact) {
        bestCost = std::min(bestCost, doomed[i].cand.cost);
      } else {
        bestBound = std::min(bestBound, doomed[i].lowerBound);
      }
    }
    if (static_cast<int>(candidates.size() + doomed.size() + dupSkipped_) <
        config_.maxCommitAttempts) {
      continue;
    }
    const auto farEnough = [&](double cost) {
      return wT * static_cast<double>(dy + 1) > cost + 2.0 * wT;
    };
    // The window ends iff some candidate's cost is far enough below this
    // row's y-cost. A doomed seed's cost is at least its bound, so only the
    // seeds whose bound passes the test need their cost.
    if (!farEnough(bestCost) && farEnough(bestBound)) {
      bestBound = std::numeric_limits<double>::infinity();
      for (DoomedSeed& d : doomed) {
        if (d.exact) continue;
        if (!farEnough(bestCost) && farEnough(d.lowerBound)) {
          evaluateDoomed(c, window, d);
          bestCost = std::min(bestCost, d.cand.cost);
        } else {
          bestBound = std::min(bestBound, d.lowerBound);
        }
      }
    }
    if (farEnough(bestCost)) break;
  }
  const std::size_t numCandidates = candidates.size() + doomed.size();
  if (obs::metricsEnabled()) {
    obs::counter("mgl.insert.seed_dedup").add(dupSkipped_);
    obs::counter("mgl.curve_cache.hit").add(curveHits_);
    obs::counter("mgl.curve_cache.miss").add(curveMisses_);
    obs::histogram("mgl.window.candidates")
        .observe(static_cast<double>(numCandidates + dupSkipped_));
  }
  curveHits_ = 0;
  curveMisses_ = 0;

  // Total-order comparator (cost, |y - gpY|, y, x, seed): every key chain is
  // unique, so the selected order never depends on the sort implementation.
  const double gpY = target.gpY;
  const auto cheaper = [gpY](const Candidate& a, const Candidate& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    const double dya = std::abs(static_cast<double>(a.y) - gpY);
    const double dyb = std::abs(static_cast<double>(b.y) - gpY);
    if (dya != dyb) return dya < dyb;
    if (a.y != b.y) return a.y < b.y;
    if (a.x != b.x) return a.x < b.x;
    return a.seed < b.seed;
  };
  // The reject cap below can end the commit loop early only if there are
  // more candidates than it allows. Then every doomed seed takes its place
  // in the cost order, which decides where the cap falls.
  if (static_cast<int>(numCandidates) > config_.maxCommitAttempts) {
    for (DoomedSeed& d : doomed) {
      if (!d.exact) evaluateDoomed(c, window, d);
      candidates.push_back(d.cand);
    }
    doomed.clear();
  }
  // Otherwise a doomed seed can only hide a candidate that shares its
  // (x, y) and comes later in the cost order from the seen-set below. Its x
  // lies in its feasible interval, so only the doomed seeds of that row
  // whose interval holds cand.x need their exact x.
  const auto hiddenByDoomed = [&](const Candidate& cand) {
    for (DoomedSeed& d : doomed) {
      if (d.cand.y != cand.y || cand.x < d.lo || cand.x > d.hi) continue;
      if (!d.exact) evaluateDoomed(c, window, d);
      if (d.cand.x == cand.x && cheaper(d.cand, cand)) return true;
    }
    return false;
  };
  // Lazy bounded selection: most windows commit the first candidate, so
  // sorting the whole vector is wasted work. partial_sort the cheapest
  // prefix and extend it (doubling) only when the commit loop outruns it;
  // the visited sequence is identical to a full sort.
  std::size_t sorted = 0;
  std::size_t chunk = 16;
  auto ensureSorted = [&](std::size_t upTo) {
    upTo = std::min(upTo, candidates.size());
    if (upTo <= sorted) return;
    std::partial_sort(candidates.begin() + static_cast<std::ptrdiff_t>(sorted),
                      candidates.begin() + static_cast<std::ptrdiff_t>(upTo),
                      candidates.end(), cheaper);
    sorted = upTo;
  };
  // Attempt commits in cost order, skipping duplicate (x, y) targets
  // (different partitions can coincide on the same position).
  auto& seen = seenScratch_;
  seen.clear();
  int rejected = 0;  // candidates the push-reach check turned down
  bool committed = false;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i >= sorted) {
      ensureSorted(i + chunk);
      chunk *= 2;
    }
    const Candidate& cand = candidates[i];
    if (cand.cost >= config_.costCeiling) break;  // sorted ascending
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cand.x)) << 32) |
        static_cast<std::uint32_t>(cand.y);
    if (!seen.insert(key)) continue;
    if (cand.reachable()) {
      if (hiddenByDoomed(cand)) continue;
      commit(c, cand, window);
      lastCommit_.x = cand.x;
      lastCommit_.y = cand.y;
      lastCommit_.estimatedCost = cand.cost;
      committed = true;
      break;
    }
    if (++rejected >= config_.maxCommitAttempts) break;
  }
  if (obs::metricsEnabled()) {
    obs::counter("mgl.commit.attempts").add(rejected + (committed ? 1 : 0));
    obs::counter("mgl.commit.reach_rejects").add(rejected);
    obs::counter("mgl.commit.pushes").add(commitPushes_);
    obs::counter("mgl.insert.doomed").add(doomedSeeds_);
    obs::counter("mgl.insert.doomed_evaluated").add(doomedEvaluated_);
  }
  commitPushes_ = 0;
  doomedSeeds_ = 0;
  doomedEvaluated_ = 0;
  bumpReject(committed ? "mgl.insert.committed" : "mgl.insert.window_failed");
  return committed;
}

void InsertionSearcher::commit(CellId c, const Candidate& cand,
                               const Rect& window) {
  auto& design = state_.design();
  const std::int64_t x = cand.x;
  const std::int64_t y = cand.y;
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  const double seedCenter = static_cast<double>(cand.seed) + w * 0.5;

  // Two vector-backed FIFO work lists (head index instead of pop_front),
  // seeded with the requests the target makes of its immediate neighbours:
  // the cells on either side of the seed's partition boundary.
  auto& leftQ = queueScratch_;
  auto& rightQ = rightQueueScratch_;
  leftQ.clear();
  rightQ.clear();
  for (std::int64_t r = y; r < y + h; ++r) {
    const RowSnap& snap = rowSnap(r, window);
    const auto b = static_cast<std::size_t>(
        std::upper_bound(snap.center.begin(), snap.center.end(), seedCenter) -
        snap.center.begin());
    if (b > 0) {
      const CellId j = snap.cell[b - 1];
      leftQ.push_back({j, snap.local[b - 1] != 0,
                       x - spacingBetween(j, c) - snap.width[b - 1]});
    }
    if (b < snap.cell.size()) {
      const CellId j = snap.cell[b];
      rightQ.push_back({j, snap.local[b] != 0, x + w + spacingBetween(c, j)});
    }
  }

  // Propagate the requests. A cell's step slot holds its simulated x for
  // this commit.
  const std::uint64_t attemptEpoch = ++arena_->stepEpoch;
  auto& moved = movedScratch_;
  moved.clear();
  auto curX = [&](CellId j) {
    const CellSlot& slot = arena_->cellSlots[static_cast<std::size_t>(j)];
    return slot.stepEpoch == attemptEpoch ? slot.step : design.cells[j].x;
  };
  auto setX = [&](CellId j, std::int64_t nx) {
    CellSlot& slot = arena_->cellSlots[static_cast<std::size_t>(j)];
    if (slot.stepEpoch != attemptEpoch) {
      slot.stepEpoch = attemptEpoch;
      moved.push_back(j);
    }
    slot.step = nx;
  };

  // Left pushes: bound is the max allowed left edge.
  for (std::size_t head = 0; head < leftQ.size();) {
    const PushReq req = leftQ[head++];
    if (curX(req.cell) <= req.bound) continue;
    ++commitPushes_;
    MCLG_ASSERT(req.local, "push reach admitted a push of a non-local cell");
    MCLG_ASSERT(req.bound >= slideRange(req.cell).lo,
                "push reach admitted a push past a segment boundary");
    setX(req.cell, req.bound);
    const std::int64_t cy = design.cells[req.cell].y;
    for (std::int64_t r = cy; r < cy + design.heightOf(req.cell); ++r) {
      const RowSnap& snap = rowSnap(r, window);
      const auto i = static_cast<std::size_t>(snapIndex(snap, req.cell, r));
      if (i == 0) continue;
      const CellId n = snap.cell[i - 1];
      leftQ.push_back({n, snap.local[i - 1] != 0,
                       req.bound - spacingBetween(n, req.cell) -
                           snap.width[i - 1]});
    }
  }
  // Right pushes: bound is the min allowed left edge.
  for (std::size_t head = 0; head < rightQ.size();) {
    const PushReq req = rightQ[head++];
    if (curX(req.cell) >= req.bound) continue;
    ++commitPushes_;
    MCLG_ASSERT(req.local, "push reach admitted a push of a non-local cell");
    const int wj = design.widthOf(req.cell);
    MCLG_ASSERT(req.bound + wj <= slideRange(req.cell).hi,
                "push reach admitted a push past a segment boundary");
    setX(req.cell, req.bound);
    const std::int64_t cy = design.cells[req.cell].y;
    for (std::int64_t r = cy; r < cy + design.heightOf(req.cell); ++r) {
      const RowSnap& snap = rowSnap(r, window);
      const auto i = static_cast<std::size_t>(snapIndex(snap, req.cell, r));
      if (i + 1 == snap.cell.size()) continue;
      const CellId n = snap.cell[i + 1];
      rightQ.push_back({n, snap.local[i + 1] != 0,
                        req.bound + wj + spacingBetween(req.cell, n)});
    }
  }

  // Split the accepted moves by direction; (position, cell id) keys make
  // the application order a total order, independent of discovery order.
  auto& leftShifts = leftShiftScratch_;
  auto& rightShifts = rightShiftScratch_;
  leftShifts.clear();
  rightShifts.clear();
  for (const CellId j : moved) {
    const std::int64_t nx = arena_->cellSlots[static_cast<std::size_t>(j)].step;
    if (nx < design.cells[j].x) {
      leftShifts.emplace_back(j, nx);
    } else if (nx > design.cells[j].x) {
      rightShifts.emplace_back(j, nx);
    }
  }
  std::sort(leftShifts.begin(), leftShifts.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  std::sort(rightShifts.begin(), rightShifts.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  // Exactly measured weighted regional delta, and the undo record.
  const double swf = design.siteWidthFactor;
  auto weightOf = [&](CellId j) {
    return config_.contestWeights ? design.metricWeight(j) : 1.0;
  };
  const auto& target = design.cells[c];
  double measured = weightOf(c) *
                    (swf * std::abs(static_cast<double>(x) - target.gpX) +
                     std::abs(static_cast<double>(y) - target.gpY));
  lastCommit_.shifts.clear();
  auto applyShift = [&](CellId j, std::int64_t nx) {
    const auto& cell = design.cells[j];
    const double gp = config_.gpObjective ? cell.gpX
                                          : static_cast<double>(cell.x);
    measured += weightOf(j) * swf *
                (std::abs(static_cast<double>(nx) - gp) -
                 std::abs(static_cast<double>(cell.x) - gp));
    lastCommit_.shifts.emplace_back(j, cell.x);
    state_.shiftX(j, nx);
  };
  for (const auto& [j, nx] : leftShifts) applyShift(j, nx);
  for (const auto& [j, nx] : rightShifts) applyShift(j, nx);
  state_.place(c, x, y);
  lastCommit_.measuredCost = measured;
}

void InsertionSearcher::undoLastCommit(CellId c) {
  state_.remove(c);
  // Restore in reverse application order so transient key collisions in the
  // occupancy rows cannot occur.
  for (auto it = lastCommit_.shifts.rbegin(); it != lastCommit_.shifts.rend();
       ++it) {
    state_.shiftX(it->first, it->second);
  }
  lastCommit_ = {};
}

}  // namespace mclg
