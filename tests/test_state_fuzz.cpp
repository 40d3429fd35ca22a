// Randomized operation fuzz of PlacementState and free spans against a
// naive reference occupancy model (a plain site grid).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "db/free_span.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::smallDesign;

/// Naive reference: a full site×row grid of cell ids.
class GridModel {
 public:
  GridModel(std::int64_t sitesX, std::int64_t rows)
      : sitesX_(sitesX), grid_(static_cast<std::size_t>(sitesX * rows),
                               kInvalidCell) {}

  bool free(std::int64_t x, std::int64_t y, int w, int h) const {
    for (std::int64_t r = y; r < y + h; ++r) {
      for (std::int64_t s = x; s < x + w; ++s) {
        if (at(s, r) != kInvalidCell) return false;
      }
    }
    return true;
  }
  void set(std::int64_t x, std::int64_t y, int w, int h, CellId c) {
    for (std::int64_t r = y; r < y + h; ++r) {
      for (std::int64_t s = x; s < x + w; ++s) at(s, r) = c;
    }
  }
  CellId at(std::int64_t x, std::int64_t y) const {
    return grid_[static_cast<std::size_t>(y * sitesX_ + x)];
  }
  CellId& at(std::int64_t x, std::int64_t y) {
    return grid_[static_cast<std::size_t>(y * sitesX_ + x)];
  }

 private:
  std::int64_t sitesX_;
  std::vector<CellId> grid_;
};

TEST(PlacementStateFuzz, AgreesWithGridModel) {
  Rng rng(777);
  Design d = smallDesign();
  d.numSitesX = 48;
  d.numRows = 12;
  const int numCells = 60;
  for (int i = 0; i < numCells; ++i) {
    addCell(d, static_cast<TypeId>(rng.uniformInt(0, 2)), 0, 0);
  }
  PlacementState state(d);
  GridModel model(d.numSitesX, d.numRows);

  int placedOps = 0, removedOps = 0, shiftedOps = 0;
  for (int op = 0; op < 4000; ++op) {
    const CellId c = static_cast<CellId>(rng.uniformInt(0, numCells - 1));
    const int w = d.widthOf(c);
    const int h = d.heightOf(c);
    const auto& cell = d.cells[c];
    const int action = static_cast<int>(rng.uniformInt(0, 2));
    if (action == 0 && !cell.placed) {
      const std::int64_t x = rng.uniformInt(0, d.numSitesX - w);
      const std::int64_t y = rng.uniformInt(0, d.numRows - h);
      const bool fits = model.free(x, y, w, h);
      EXPECT_EQ(state.spanEmpty(y, h, x, w), fits);
      if (fits) {
        state.place(c, x, y);
        model.set(x, y, w, h, c);
        ++placedOps;
      }
    } else if (action == 1 && cell.placed) {
      model.set(cell.x, cell.y, w, h, kInvalidCell);
      state.remove(c);
      ++removedOps;
    } else if (action == 2 && cell.placed) {
      const std::int64_t nx = rng.uniformInt(0, d.numSitesX - w);
      model.set(cell.x, cell.y, w, h, kInvalidCell);
      const bool fits = model.free(nx, cell.y, w, h);
      EXPECT_EQ(state.spanEmpty(cell.y, h, nx, w, c), fits);
      if (fits) {
        state.shiftX(c, nx);
        model.set(nx, cell.y, w, h, c);
        ++shiftedOps;
      } else {
        model.set(cell.x, cell.y, w, h, c);  // restore
      }
    }

    // Spot-check random probes every few operations.
    if (op % 7 == 0) {
      const std::int64_t px = rng.uniformInt(0, d.numSitesX - 1);
      const std::int64_t py = rng.uniformInt(0, d.numRows - 1);
      EXPECT_EQ(state.cellAt(py, px), model.at(px, py))
          << "op " << op << " probe (" << px << "," << py << ")";
    }
  }
  EXPECT_GT(placedOps, 100);
  EXPECT_GT(removedOps, 100);
  EXPECT_GT(shiftedOps, 50);
}

// The flat occupancy rows against the std::map<x, cell> rows they
// replaced: the same random place/remove/shift sequence drives both, and
// after every operation each touched row must list the same (x, cell)
// pairs in the same order and answer lower_bound/upper_bound/find at random
// x exactly as the map does. Shifts include long moves that change a
// cell's rank in its rows, not only in-place pushes.
TEST(PlacementStateFuzz, FlatRowsMatchMapReference) {
  Rng rng(4242);
  Design d = smallDesign();
  d.numSitesX = 64;
  d.numRows = 10;
  const int numCells = 80;
  for (int i = 0; i < numCells; ++i) {
    addCell(d, static_cast<TypeId>(rng.uniformInt(0, 2)), 0, 0);
  }
  PlacementState state(d);
  std::vector<std::map<std::int64_t, CellId>> ref(
      static_cast<std::size_t>(d.numRows));
  const auto expectRowMatches = [&](std::int64_t y, int op) {
    const RowOccupancy& row = state.rowCells(y);
    const auto& want = ref[static_cast<std::size_t>(y)];
    ASSERT_EQ(row.size(), want.size()) << "op " << op << " row " << y;
    ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }))
        << "op " << op << " row " << y;
    for (int probe = 0; probe < 4; ++probe) {
      const std::int64_t x = rng.uniformInt(-1, d.numSitesX);
      const auto at = [](const auto& container, auto it) {
        return it == container.end() ? std::int64_t{-100} : it->first;
      };
      EXPECT_EQ(at(row, row.lower_bound(x)), at(want, want.lower_bound(x)));
      EXPECT_EQ(at(row, row.upper_bound(x)), at(want, want.upper_bound(x)));
      EXPECT_EQ(at(row, row.find(x)), at(want, want.find(x)));
    }
  };

  int placedOps = 0, removedOps = 0, shiftedOps = 0;
  for (int op = 0; op < 5000; ++op) {
    const CellId c = static_cast<CellId>(rng.uniformInt(0, numCells - 1));
    const int w = d.widthOf(c);
    const int h = d.heightOf(c);
    const auto& cell = d.cells[c];
    const int action = static_cast<int>(rng.uniformInt(0, 2));
    std::int64_t y = cell.y;
    if (action == 0 && !cell.placed) {
      const std::int64_t x = rng.uniformInt(0, d.numSitesX - w);
      y = rng.uniformInt(0, d.numRows - h);
      if (!state.spanEmpty(y, h, x, w)) continue;
      state.place(c, x, y);
      for (std::int64_t r = y; r < y + h; ++r) {
        ref[static_cast<std::size_t>(r)].emplace(x, c);
      }
      ++placedOps;
    } else if (action == 1 && cell.placed) {
      for (std::int64_t r = y; r < y + h; ++r) {
        ref[static_cast<std::size_t>(r)].erase(cell.x);
      }
      state.remove(c);
      ++removedOps;
    } else if (action == 2 && cell.placed) {
      // Half the shifts are short pushes, half jump anywhere free.
      const std::int64_t nx =
          rng.uniformInt(0, 1) == 0
              ? std::clamp<std::int64_t>(cell.x + rng.uniformInt(-2, 2), 0,
                                         d.numSitesX - w)
              : rng.uniformInt(0, d.numSitesX - w);
      if (!state.spanEmpty(y, h, nx, w, c)) continue;
      const std::int64_t oldX = cell.x;
      state.shiftX(c, nx);
      for (std::int64_t r = y; r < y + h; ++r) {
        auto& row = ref[static_cast<std::size_t>(r)];
        row.erase(oldX);
        row.emplace(nx, c);
      }
      ++shiftedOps;
    } else {
      continue;
    }
    for (std::int64_t r = y; r < y + h; ++r) expectRowMatches(r, op);
  }
  EXPECT_GT(placedOps, 100);
  EXPECT_GT(removedOps, 100);
  EXPECT_GT(shiftedOps, 100);

  // A state built over the placed design indexes the same rows, and a
  // snapshot restores them exactly.
  const PlacementSnapshot snap = state.snapshot();
  PlacementState rebuilt(d);
  for (std::int64_t r = 0; r < d.numRows; ++r) {
    EXPECT_EQ(rebuilt.rowCells(r), state.rowCells(r)) << "row " << r;
  }
  for (CellId c = 0; c < numCells; ++c) {
    if (d.cells[c].placed) state.remove(c);
  }
  state.restore(snap);
  EXPECT_EQ(state.snapshot(), snap);
}

// emplace() keeps std::map's rule: a taken x is not overwritten.
TEST(PlacementStateFuzz, FlatRowEmplaceKeepsTakenKey) {
  RowOccupancy row;
  EXPECT_TRUE(row.emplace(5, 1));
  EXPECT_TRUE(row.emplace(2, 2));
  EXPECT_FALSE(row.emplace(5, 3));
  ASSERT_EQ(row.size(), 2U);
  EXPECT_EQ(row.find(5)->second, 1);
  row.move(row.find(2), 9);  // changes rank: now after x = 5
  EXPECT_EQ(row.begin()->first, 5);
  EXPECT_EQ(std::prev(row.end())->first, 9);
  EXPECT_EQ(std::prev(row.end())->second, 2);
}

// unplacedCells() keeps no per-call scan of the design: it must still list
// exactly the unplaced movable cells after random place / remove / shiftX,
// snapshot restores, and cells appended to or truncated from the design
// (as the serve session's undo log does: remove first, then truncate).
TEST(PlacementStateFuzz, UnplacedCellsMatchScan) {
  Rng rng(4242);
  Design d = smallDesign();
  d.numSitesX = 48;
  d.numRows = 12;
  for (int i = 0; i < 40; ++i) {
    addCell(d, static_cast<TypeId>(rng.uniformInt(0, 2)), 0, 0);
  }
  testing::addFixed(d, 0, 46, 11);
  PlacementState state(d);
  const auto scan = [&] {
    std::vector<CellId> out;
    for (CellId c = 0; c < d.numCells(); ++c) {
      if (!d.cells[c].fixed && !d.cells[c].placed) out.push_back(c);
    }
    return out;
  };
  // Snapshots with the design's cell count when each was taken.
  std::vector<std::pair<PlacementSnapshot, int>> snaps;
  snaps.emplace_back(state.snapshot(), d.numCells());
  int restores = 0, truncations = 0;
  for (int op = 0; op < 6000; ++op) {
    const auto action = rng.uniformInt(0, 19);
    const CellId c = static_cast<CellId>(rng.uniformInt(0, d.numCells() - 1));
    Cell& cell = d.cells[c];
    if (action < 8) {
      if (cell.fixed || cell.placed) continue;
      const int w = d.widthOf(c);
      const int h = d.heightOf(c);
      const std::int64_t x = rng.uniformInt(0, d.numSitesX - w);
      const std::int64_t y = rng.uniformInt(0, d.numRows - h);
      if (state.spanEmpty(y, h, x, w)) state.place(c, x, y);
    } else if (action < 13) {
      if (!cell.fixed && cell.placed) state.remove(c);
    } else if (action < 15) {
      if (cell.fixed || !cell.placed) continue;
      const std::int64_t x = rng.uniformInt(0, d.numSitesX - d.widthOf(c));
      if (state.spanEmpty(cell.y, d.heightOf(c), x, d.widthOf(c), c)) {
        state.shiftX(c, x);
      }
    } else if (action == 15) {
      addCell(d, static_cast<TypeId>(rng.uniformInt(0, 2)), 0, 0);
    } else if (action == 16 && d.numCells() > 45) {
      // Drop the last few cells, taking the placed ones out first.
      const int keep = d.numCells() - static_cast<int>(rng.uniformInt(1, 3));
      for (CellId t = keep; t < d.numCells(); ++t) {
        if (d.cells[t].placed) state.remove(t);
      }
      d.cells.resize(static_cast<std::size_t>(keep));
      ++truncations;
      // A snapshot of the dropped cells no longer fits the design.
      std::erase_if(snaps, [&](const auto& snap) { return snap.second > keep; });
    } else if (action == 17) {
      snaps.emplace_back(state.snapshot(), d.numCells());
    } else if (action == 18) {
      const auto k = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(snaps.size()) - 1));
      if (snaps[k].second != d.numCells()) continue;
      state.restore(snaps[k].first);
      ++restores;
    } else {
      ASSERT_EQ(scan(), state.unplacedCells()) << "op " << op;
    }
  }
  EXPECT_EQ(scan(), state.unplacedCells());
  EXPECT_GT(restores, 0);
  EXPECT_GT(truncations, 0);
}

TEST(FreeSpanFuzz, MatchesGridModel) {
  Rng rng(888);
  for (int trial = 0; trial < 20; ++trial) {
    Design d = smallDesign();
    d.numSitesX = 40;
    d.numRows = 10;
    if (rng.chance(0.5)) d.fences.push_back({"f", {{8, 2, 24, 8}}});
    PlacementState state(d);
    GridModel model(d.numSitesX, d.numRows);
    // Scatter some cells.
    for (int i = 0; i < 25; ++i) {
      const CellId c = addCell(d, static_cast<TypeId>(rng.uniformInt(0, 2)),
                               0, 0);
      const int w = d.widthOf(c);
      const int h = d.heightOf(c);
      const std::int64_t x = rng.uniformInt(0, d.numSitesX - w);
      const std::int64_t y = rng.uniformInt(0, d.numRows - h);
      if (model.free(x, y, w, h)) {
        state.place(c, x, y);
        model.set(x, y, w, h, c);
      }
    }
    const SegmentMap segments(d);
    // For random spans, freeIntervalsForSpan must match site-wise checks.
    for (int probe = 0; probe < 30; ++probe) {
      const int h = 1 + static_cast<int>(rng.uniformInt(0, 2));
      const std::int64_t y = rng.uniformInt(0, d.numRows - h);
      const FenceId fence = static_cast<FenceId>(
          rng.uniformInt(0, d.numFences() - 1));
      const auto free = freeIntervalsForSpan(state, segments, y, h, fence,
                                             {0, d.numSitesX});
      for (std::int64_t x = 0; x < d.numSitesX; ++x) {
        bool expected = segments.spanInFence(y, h, x, 1, fence);
        if (expected) {
          for (std::int64_t r = y; r < y + h && expected; ++r) {
            if (model.at(x, r) != kInvalidCell) expected = false;
          }
        }
        bool inFree = false;
        for (const auto& iv : free) inFree |= iv.contains(x);
        EXPECT_EQ(inFree, expected)
            << "trial " << trial << " y=" << y << " h=" << h << " x=" << x
            << " fence=" << fence;
      }
    }
  }
}


TEST(FreeSpanFuzz, NearestFreeSlotsMatchBruteForce) {
  // nearestFreeSlots against a scan of every row and every free-site run
  // of the grid model: fences, a parity-constrained type, narrowed x
  // windows, GP positions outside the core and both tie orders.
  Rng rng(889);
  int outsideCoreHits = 0, narrowHits = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Design d = smallDesign();
    if (rng.chance(0.5)) d.fences.push_back({"f", {{8, 2, 24, 8}}});
    PlacementState state(d);
    GridModel model(d.numSitesX, d.numRows);
    const int scatter = static_cast<int>(rng.uniformInt(10, 60));
    for (int i = 0; i < scatter; ++i) {
      const CellId c = addCell(d, static_cast<TypeId>(rng.uniformInt(0, 2)),
                               0, 0);
      const int w = d.widthOf(c);
      const int h = d.heightOf(c);
      const std::int64_t x = rng.uniformInt(0, d.numSitesX - w);
      const std::int64_t y = rng.uniformInt(0, d.numRows - h);
      if (model.free(x, y, w, h)) {
        state.place(c, x, y);
        model.set(x, y, w, h, c);
      }
    }
    const CellId probe = addCell(d, 0, 0, 0);
    const SegmentMap segments(d);
    for (int round = 0; round < 30; ++round) {
      Cell& cell = d.cells[probe];
      cell.type = static_cast<TypeId>(rng.uniformInt(0, 2));
      cell.fence =
          static_cast<FenceId>(rng.uniformInt(0, d.numFences() - 1));
      cell.gpX = rng.uniformReal(-10.0, 50.0);
      cell.gpY = rng.uniformReal(-8.0, 18.0);
      Interval xWindow{0, d.numSitesX};
      if (rng.chance(0.4)) {
        const std::int64_t lo = rng.uniformInt(0, d.numSitesX - 1);
        xWindow = {lo, rng.uniformInt(lo + 1, d.numSitesX)};
      }
      const int maxSlots = static_cast<int>(rng.uniformInt(1, 6));
      const SlotTieBreak ties =
          rng.chance(0.5) ? SlotTieBreak::LowerRow : SlotTieBreak::NearerRow;
      const int w = d.widthOf(probe);
      const int h = d.heightOf(probe);
      const auto gx = static_cast<std::int64_t>(std::lround(cell.gpX));
      const auto gy = static_cast<std::int64_t>(std::lround(cell.gpY));

      // Brute force: every maximal run of free, in-fence sites of every
      // parity-legal row span, clipped to the window.
      std::vector<FreeSlot> brute;
      for (std::int64_t y = 0; y + h <= d.numRows; ++y) {
        if (!d.parityOk(cell.type, y)) continue;
        const auto siteFree = [&](std::int64_t x) {
          if (!segments.spanInFence(y, h, x, 1, cell.fence)) return false;
          for (std::int64_t r = y; r < y + h; ++r) {
            if (model.at(x, r) != kInvalidCell) return false;
          }
          return true;
        };
        for (std::int64_t x = xWindow.lo; x < xWindow.hi;) {
          if (!siteFree(x)) {
            ++x;
            continue;
          }
          std::int64_t end = x;
          while (end < xWindow.hi && siteFree(end)) ++end;
          if (end - x >= w) {
            const std::int64_t sx = std::clamp(gx, x, end - w);
            brute.push_back(
                {d.siteWidthFactor *
                         std::abs(static_cast<double>(sx) - cell.gpX) +
                     std::abs(static_cast<double>(y) - cell.gpY),
                 sx, y});
          }
          x = end;
        }
      }
      const auto before = [&](const FreeSlot& a, const FreeSlot& b) {
        if (a.cost != b.cost) return a.cost < b.cost;
        if (ties == SlotTieBreak::NearerRow &&
            std::abs(a.y - gy) != std::abs(b.y - gy)) {
          return std::abs(a.y - gy) < std::abs(b.y - gy);
        }
        if (a.y != b.y) return a.y < b.y;
        return a.x < b.x;
      };
      std::sort(brute.begin(), brute.end(), before);

      const auto got =
          nearestFreeSlots(state, segments, probe, xWindow, maxSlots, ties);
      const std::string where = "trial " + std::to_string(trial) +
                                " round " + std::to_string(round);
      ASSERT_EQ(got.empty(), brute.empty()) << where;
      if (got.empty()) continue;
      EXPECT_LE(got.size(), static_cast<std::size_t>(maxSlots)) << where;
      EXPECT_EQ(got[0].x, brute[0].x) << where;
      EXPECT_EQ(got[0].y, brute[0].y) << where;
      EXPECT_EQ(got[0].cost, brute[0].cost) << where;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const FreeSlot& s = got[i];
        EXPECT_TRUE(segments.spanInFence(s.y, h, s.x, w, cell.fence)) << where;
        EXPECT_TRUE(state.spanEmpty(s.y, h, s.x, w)) << where;
        EXPECT_TRUE(s.x >= xWindow.lo && s.x + w <= xWindow.hi) << where;
        if (i > 0) {
          EXPECT_TRUE(before(got[i - 1], s)) << where;
        }
      }
      // Every slot within best + 4.5 is ranked exactly (4.4 keeps the
      // boundary out of floating-point reach).
      for (std::size_t i = 0;
           i < std::min(brute.size(), static_cast<std::size_t>(maxSlots)) &&
           brute[i].cost < brute[0].cost + 4.4;
           ++i) {
        ASSERT_LT(i, got.size()) << where;
        EXPECT_EQ(got[i].x, brute[i].x) << where << " slot " << i;
        EXPECT_EQ(got[i].y, brute[i].y) << where << " slot " << i;
      }
      if (cell.gpY < -0.5 || cell.gpY >= d.numRows - 0.5) ++outsideCoreHits;
      if (xWindow.length() < d.numSitesX) ++narrowHits;
    }
  }
  EXPECT_GT(outsideCoreHits, 50);
  EXPECT_GT(narrowHits, 50);
}

}  // namespace
}  // namespace mclg
