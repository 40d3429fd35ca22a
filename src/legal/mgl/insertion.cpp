#include "legal/mgl/insertion.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

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
  ++windowEpoch_;
  const auto& design = state_.design();
  if (rowSnaps_.size() < static_cast<std::size_t>(design.numRows)) {
    rowSnaps_.resize(static_cast<std::size_t>(design.numRows));
  }
  if (cellSlots_.size() < static_cast<std::size_t>(design.numCells())) {
    cellSlots_.resize(static_cast<std::size_t>(design.numCells()));
  }
  spanIndex_.clear();
  dupSkipped_ = 0;
}

InsertionSearcher::CellSlot& InsertionSearcher::windowSlot(CellId j) const {
  CellSlot& slot = cellSlots_[static_cast<std::size_t>(j)];
  if (slot.windowEpoch != windowEpoch_) {
    slot.windowEpoch = windowEpoch_;
    slot.spanBase = -1;
    slot.hasCurve = false;
    slot.hasSlide = false;
  }
  return slot;
}

const InsertionSearcher::RowSnap& InsertionSearcher::buildRowSnap(
    std::int64_t r, const Rect& window) const {
  RowSnap& snap = rowSnaps_[static_cast<std::size_t>(r)];
  snap.epoch = windowEpoch_;
  snap.winBegin = 0;
  snap.x.clear();
  snap.center.clear();
  snap.cell.clear();
  snap.width.clear();
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
    const int wj = design.widthOf(j);
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
    snap.center.push_back(static_cast<double>(it->first) + wj * 0.5);
    snap.local.push_back(local ? 1 : 0);
    if (it->first >= window.xhi) break;
  }
  return snap;
}

std::int32_t InsertionSearcher::snapIndex(const RowSnap& snap, CellId j,
                                          std::int64_t r) const {
  const CellSlot& slot = cellSlots_[static_cast<std::size_t>(j)];
  MCLG_ASSERT(slot.windowEpoch == windowEpoch_ && slot.spanBase >= 0,
              "pushed cell missing from the window snapshots");
  const std::int32_t i = spanIndex_[static_cast<std::size_t>(
      slot.spanBase + (r - state_.design().cells[j].y))];
  MCLG_ASSERT(i >= 0 && snap.cell[static_cast<std::size_t>(i)] == j,
              "occupancy out of sync in commit");
  return i;
}

const std::vector<Interval>& InsertionSearcher::forbiddenX(
    TypeId type) const {
  const auto& design = state_.design();
  const auto t = static_cast<std::size_t>(type);
  if (forbiddenByType_.size() <= t) {
    forbiddenByType_.resize(static_cast<std::size_t>(design.numTypes()));
  }
  auto& forbidden = forbiddenByType_[t];
  // verticalRailForbiddenX ignores the row: any y gives the same answer.
  if (!forbidden) forbidden = verticalRailForbiddenX(design, type, 0);
  return *forbidden;
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

bool InsertionSearcher::evaluateSeed(CellId c, const Rect& window,
                                     std::int64_t y, std::int64_t seed,
                                     Candidate& out) const {
  const auto& design = state_.design();
  const auto& target = design.cells[c];
  const auto& type = design.typeOf(c);
  const int h = type.height;
  const int w = type.width;

  std::int64_t lo = window.xlo;
  std::int64_t hi = window.xhi - w;

  // Chain entries, deduplicated across rows for multi-row local cells (the
  // most constraining row's offset wins). A cell's step slot holds its entry
  // index for this seed.
  auto& entries = entryScratch_;
  entries.clear();
  const std::uint64_t seedEpoch = ++stepEpoch_;
  auto addEntry = [&](CellId j, std::int64_t off, bool left) {
    CellSlot& slot = cellSlots_[static_cast<std::size_t>(j)];
    if (slot.stepEpoch != seedEpoch) {
      slot.stepEpoch = seedEpoch;
      slot.step = static_cast<std::int64_t>(entries.size());
      entries.push_back({j, off, left});
    } else if (off > entries[static_cast<std::size_t>(slot.step)].off) {
      entries[static_cast<std::size_t>(slot.step)].off = off;
    }
  };

  for (std::int64_t r = y; r < y + h; ++r) {
    const RowCtx& rc = rowCtxScratch_[static_cast<std::size_t>(r - y)];
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
      TypeId prevType = target.type;
      bool wallFound = false;
      for (std::int32_t i = rc.boundary - 1; i >= 0; --i) {
        if (snap.x[i] < seg->x.lo) break;  // outside the segment
        const CellId j = snap.cell[i];
        const int sp = edgeSpacing(design.typeOf(j).rightEdge,
                                          design.types[prevType].leftEdge);
        if (snap.local[i]) {
          const std::int64_t off = acc + sp + snap.width[i];
          addEntry(j, off, /*left=*/true);
          acc = off;
          prevType = design.cells[j].type;
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
      TypeId prevType = target.type;
      bool wallFound = false;
      const auto n = static_cast<std::int32_t>(snap.x.size());
      for (std::int32_t i = rc.boundary; i < n && snap.x[i] < seg->x.hi; ++i) {
        const CellId j = snap.cell[i];
        const int sp = edgeSpacing(design.types[prevType].rightEdge,
                                          design.typeOf(j).leftEdge);
        if (snap.local[i]) {
          const std::int64_t off = acc + sp;
          addEntry(j, off, /*left=*/false);
          acc = off + snap.width[i];
          prevType = design.cells[j].type;
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
  for (const auto& entry : entries) {
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
    const auto& forbidden = forbiddenX(target.type);
    auto inForbidden = [&](std::int64_t x) -> const Interval* {
      for (const auto& iv : forbidden) {
        if (iv.contains(x)) return &iv;
      }
      return nullptr;
    };
    if (const Interval* iv = inForbidden(best.x)) {
      const std::int64_t leftAlt = iv->lo - 1;
      const std::int64_t rightAlt = iv->hi;
      double bestVal = 0.0;
      std::int64_t bestX = 0;
      bool found = false;
      if (leftAlt >= lo && inForbidden(leftAlt) == nullptr) {
        bestVal = sum.value(static_cast<double>(leftAlt));
        bestX = leftAlt;
        found = true;
      }
      if (rightAlt <= hi && inForbidden(rightAlt) == nullptr) {
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
    const int ioOverlaps =
        countIoOverlaps(design, target.type, best.x, y);
    best.value += ioOverlaps * config_.ioPenalty * wT;
  }

  out.x = best.x;
  out.y = y;
  out.cost = best.value;
  out.seed = seed;
  return true;
}

void InsertionSearcher::evaluateRow(CellId c, const Rect& window,
                                    std::int64_t y,
                                    std::vector<Candidate>& out) const {
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
  // snapshots, not the ordered maps.
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
    // set never depends on library internals.
    std::nth_element(
        seeds.begin(), seeds.begin() + config_.maxSeedsPerRow, seeds.end(),
        [&](std::int64_t a, std::int64_t b) {
          const std::int64_t da = std::abs(a - gpSeed);
          const std::int64_t db = std::abs(b - gpSeed);
          if (da != db) return da < db;
          return a < b;
        });
    seeds.resize(static_cast<std::size_t>(config_.maxSeedsPerRow));
    std::sort(seeds.begin(), seeds.end());
  }

  // Per-seed partition contexts. Adjacent seeds that induce the same
  // (segment, boundary) on every row of the span yield bit-identical
  // evaluations, so only the first of each run is evaluated; skipped
  // successes still count toward the window's candidate total (dupSkipped_)
  // so the expansion early-break sees the same numbers as before.
  const int h = type.height;
  auto& ctx = rowCtxScratch_;
  auto& prev = prevRowCtxScratch_;
  prev.clear();
  bool prevOk = false;
  for (const auto seed : seeds) {
    const double seedCenter = static_cast<double>(seed) + type.width * 0.5;
    ctx.clear();
    for (std::int64_t r = y; r < y + h; ++r) {
      RowCtx rc;
      rc.snap = &rowSnap(r, window);
      rc.seg = segments_.find(r, seed);
      rc.boundary = static_cast<std::int32_t>(
          std::upper_bound(rc.snap->center.begin(), rc.snap->center.end(),
                           seedCenter) -
          rc.snap->center.begin());
      ctx.push_back(rc);
    }
    bool same = prev.size() == ctx.size();
    for (std::size_t i = 0; same && i < ctx.size(); ++i) {
      same = ctx[i].seg == prev[i].seg && ctx[i].boundary == prev[i].boundary;
    }
    if (same) {
      if (prevOk) ++dupSkipped_;
      continue;
    }
    Candidate cand;
    prevOk = evaluateSeed(c, window, y, seed, cand);
    if (prevOk) out.push_back(cand);
    std::swap(ctx, prev);
  }
}

bool InsertionSearcher::tryInsert(CellId c, const Rect& window) {
  const auto& design = state_.design();
  const auto& target = design.cells[c];
  MCLG_ASSERT(!target.placed && !target.fixed, "target must be unplaced");
  bumpReject("mgl.insert.attempted");
  const int h = design.heightOf(c);
  beginWindow();

  auto& candidates = candidateScratch_;
  candidates.clear();
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
  double bestCost = std::numeric_limits<double>::infinity();
  for (std::int64_t dy = 0;; ++dy) {
    const std::int64_t below = gpRow - dy;
    const std::int64_t above = gpRow + dy;
    if (below < yLo && above > yHi) break;
    const std::size_t sizeBefore = candidates.size();
    if (below >= yLo && below <= yHi) evaluateRow(c, window, below, candidates);
    if (dy > 0 && above >= yLo && above <= yHi) {
      evaluateRow(c, window, above, candidates);
    }
    for (std::size_t i = sizeBefore; i < candidates.size(); ++i) {
      bestCost = std::min(bestCost, candidates[i].cost);
    }
    if (static_cast<int>(candidates.size() + dupSkipped_) >=
            config_.maxCommitAttempts &&
        wT * static_cast<double>(dy + 1) > bestCost + 2.0 * wT) {
      break;
    }
  }
  if (obs::metricsEnabled()) {
    obs::counter("mgl.insert.seed_dedup").add(dupSkipped_);
    obs::counter("mgl.curve_cache.hit").add(curveHits_);
    obs::counter("mgl.curve_cache.miss").add(curveMisses_);
    obs::histogram("mgl.window.candidates")
        .observe(static_cast<double>(candidates.size() + dupSkipped_));
  }
  curveHits_ = 0;
  curveMisses_ = 0;
  if (candidates.empty()) {
    bumpReject("mgl.insert.window_failed");
    return false;
  }

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
  int attempts = 0;
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
    if (!seen.insert(key).second) continue;
    if (commit(c, cand, window)) {
      lastCommit_.x = cand.x;
      lastCommit_.y = cand.y;
      lastCommit_.estimatedCost = cand.cost;
      committed = true;
      break;
    }
    if (++attempts >= config_.maxCommitAttempts) break;
  }
  if (obs::metricsEnabled()) {
    obs::counter("mgl.commit.attempts").add(commitAttempts_);
    obs::counter("mgl.commit.pushes").add(commitPushes_);
  }
  commitAttempts_ = 0;
  commitPushes_ = 0;
  bumpReject(committed ? "mgl.insert.committed" : "mgl.insert.window_failed");
  return committed;
}

bool InsertionSearcher::commit(CellId c, const Candidate& cand,
                               const Rect& window) {
  auto& design = state_.design();
  const auto& type = design.typeOf(c);
  const int h = type.height;
  const int w = type.width;
  const double seedCenter = static_cast<double>(cand.seed) + w * 0.5;
  const std::int64_t x = cand.x;
  const std::int64_t y = cand.y;
  ++commitAttempts_;

  // The placement has not changed since the window began, so the window's
  // row snapshots hold every cell a chain can reach: chains continue only
  // through local cells, which lie inside the window. A cell's step slot
  // holds its simulated x for this attempt.
  const std::uint64_t attemptEpoch = ++stepEpoch_;
  auto& moved = movedScratch_;
  moved.clear();
  auto curX = [&](CellId j) {
    const CellSlot& slot = cellSlots_[static_cast<std::size_t>(j)];
    return slot.stepEpoch == attemptEpoch ? slot.step : design.cells[j].x;
  };
  auto setX = [&](CellSlot& slot, CellId j, std::int64_t nx) {
    if (slot.stepEpoch != attemptEpoch) {
      slot.stepEpoch = attemptEpoch;
      moved.push_back(j);
    }
    slot.step = nx;
  };
  auto slideRange = [&](CellSlot& slot, CellId j) -> const Interval& {
    if (!slot.hasSlide) {
      const auto& cell = design.cells[j];
      slot.slide = segments_.slideRange(cell.y, design.heightOf(j), cell.x,
                                        design.widthOf(j), cell.fence);
      slot.hasSlide = true;
    }
    return slot.slide;
  };

  // Two vector-backed FIFO work lists (head index instead of pop_front).
  auto& leftQ = queueScratch_;
  auto& rightQ = rightQueueScratch_;
  leftQ.clear();
  rightQ.clear();

  // Seed the push requirements from the target's row span: the immediate
  // neighbours sit on either side of the seed's partition boundary (x order
  // and center order agree in a legal row).
  for (std::int64_t r = y; r < y + h; ++r) {
    const RowSnap& snap = rowSnap(r, window);
    const auto b = static_cast<std::size_t>(
        std::upper_bound(snap.center.begin(), snap.center.end(), seedCenter) -
        snap.center.begin());
    // A boundary at the left wall makes evaluateSeed's right chain start at
    // a non-local cell, so such a seed never becomes a candidate; any other
    // left neighbour is in the snapshot.
    MCLG_ASSERT(b > 0 || snap.winBegin == 0,
                "left neighbour outside the window snapshot");
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

  // Left pushes: bound is the max allowed left edge.
  for (std::size_t head = 0; head < leftQ.size();) {
    const PushReq req = leftQ[head++];
    if (curX(req.cell) <= req.bound) continue;
    ++commitPushes_;
    if (!req.local) return false;
    CellSlot& slot = windowSlot(req.cell);
    if (req.bound < slideRange(slot, req.cell).lo) return false;
    setX(slot, req.cell, req.bound);
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
    if (!req.local) return false;
    CellSlot& slot = windowSlot(req.cell);
    const int wj = design.widthOf(req.cell);
    if (req.bound + wj > slideRange(slot, req.cell).hi) return false;
    setX(slot, req.cell, req.bound);
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
    const std::int64_t nx = cellSlots_[static_cast<std::size_t>(j)].step;
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
  return true;
}

void InsertionSearcher::undoLastCommit(CellId c) {
  state_.remove(c);
  // Restore in reverse application order so transient key collisions in the
  // per-row maps cannot occur.
  for (auto it = lastCommit_.shifts.rbegin(); it != lastCommit_.shifts.rend();
       ++it) {
    state_.shiftX(it->first, it->second);
  }
  lastCommit_ = {};
}

}  // namespace mclg
