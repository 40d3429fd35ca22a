#include "legal/maxdisp/matching_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "flow/bipartite_matching.hpp"
#include "flow/hungarian.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/executor/executor.hpp"

namespace mclg {

double phiCost(double delta, double delta0) {
  if (delta <= delta0) return delta;
  const double r = delta / delta0;
  return delta0 * r * r * r * r * r;  // δ^5 / δ0^4
}

namespace {

struct Position {
  std::int64_t x;
  std::int64_t y;
};

/// Displacement (row heights) of `cell` if moved to position p.
double dispAt(const Design& design, CellId cell, const Position& p) {
  const auto& c = design.cells[cell];
  return design.siteWidthFactor * std::abs(static_cast<double>(p.x) - c.gpX) +
         std::abs(static_cast<double>(p.y) - c.gpY);
}

/// Compute the optimal permutation moves for one group of same-type,
/// same-fence cells (read-only; application happens serially).
/// Per-thread buffers reused across chunks: the stage solves dozens to
/// hundreds of assignment problems back to back and the per-chunk container
/// churn was a measurable share of its runtime. Every field is fully
/// rebuilt per chunk, so reuse cannot leak state between chunks.
struct GroupScratch {
  std::vector<Position> positions;
  std::vector<CostValue> denseCost;
  std::vector<double> posX, posY;  // position coords, flat doubles
  std::vector<int> orderX;         // position indices sorted by (x, index)
  std::vector<double> sortedX;     // posX permuted by orderX
  std::vector<std::pair<double, int>> ranked;
  std::vector<AssignmentEdge> edges;
};

std::vector<std::pair<CellId, Position>> computeGroupMoves(
    const Design& design, const MaxDispConfig& config,
    const std::vector<CellId>& group) {
  thread_local GroupScratch scratch;
  const int n = static_cast<int>(group.size());
  auto& positions = scratch.positions;
  positions.clear();
  positions.reserve(group.size());
  for (const CellId c : group) {
    positions.push_back({design.cells[c].x, design.cells[c].y});
  }

  auto phiOf = [&](int i, int j) {
    const double phi = std::min(
        config.phiClamp,
        phiCost(dispAt(design, group[static_cast<std::size_t>(i)],
                       positions[static_cast<std::size_t>(j)]),
                config.delta0));
    return static_cast<CostValue>(std::llround(phi * config.costScale));
  };

  // Small groups: exact dense Hungarian over the full matrix.
  if (n <= config.denseSolverThreshold) {
    auto& cost = scratch.denseCost;
    cost.assign(static_cast<std::size_t>(n) * n, 0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        cost[static_cast<std::size_t>(i) * n + j] = phiOf(i, j);
      }
    }
    const auto match = solveAssignmentDense(n, n, cost);
    std::vector<std::pair<CellId, Position>> moves;
    for (int i = 0; i < n; ++i) {
      const int j = match[static_cast<std::size_t>(i)];
      if (j == i) continue;
      moves.emplace_back(group[static_cast<std::size_t>(i)],
                         positions[static_cast<std::size_t>(j)]);
    }
    return moves;
  }

  // Sparse candidate edges: own position (guarantees a perfect matching
  // exists) plus the nearest K positions per cell.
  auto& edges = scratch.edges;
  edges.clear();
  edges.reserve(static_cast<std::size_t>(n) *
                static_cast<std::size_t>(config.candidatesPerCell + 1));
  // Flat coordinate arrays plus an x-sorted view of the chunk's positions.
  // The x-term of the displacement alone lower-bounds the full weighted-L1
  // distance, so expanding outward from a cell's global-placement x lets the
  // nearest-K search stop as soon as that bound exceeds the current K-th
  // best — exact, but examining only a small x-neighborhood instead of all
  // n positions (the stage's former n² hot loop).
  auto& posX = scratch.posX;
  auto& posY = scratch.posY;
  posX.resize(positions.size());
  posY.resize(positions.size());
  for (int j = 0; j < n; ++j) {
    posX[static_cast<std::size_t>(j)] =
        static_cast<double>(positions[static_cast<std::size_t>(j)].x);
    posY[static_cast<std::size_t>(j)] =
        static_cast<double>(positions[static_cast<std::size_t>(j)].y);
  }
  auto& orderX = scratch.orderX;
  orderX.resize(positions.size());
  for (int j = 0; j < n; ++j) orderX[static_cast<std::size_t>(j)] = j;
  std::sort(orderX.begin(), orderX.end(), [&](int a, int b) {
    const double xa = posX[static_cast<std::size_t>(a)];
    const double xb = posX[static_cast<std::size_t>(b)];
    if (xa != xb) return xa < xb;
    return a < b;
  });
  auto& sortedX = scratch.sortedX;
  sortedX.resize(positions.size());
  for (int t = 0; t < n; ++t) {
    sortedX[static_cast<std::size_t>(t)] =
        posX[static_cast<std::size_t>(orderX[static_cast<std::size_t>(t)])];
  }
  auto& ranked = scratch.ranked;
  const double swf = design.siteWidthFactor;
  const double kInf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    const auto& ci = design.cells[group[static_cast<std::size_t>(i)]];
    const double gx = ci.gpX;
    const double gy = ci.gpY;
    const int keep = std::min(n, config.candidatesPerCell);
    // Bounded insertion selection over (distance, index) pairs: pairs are
    // all distinct (the index breaks distance ties), so the kept set is
    // exactly the prefix a partial_sort over all pairs would produce,
    // regardless of visit order.
    ranked.clear();
    auto consider = [&](int t) {
      const int j = orderX[static_cast<std::size_t>(t)];
      const double d = swf * std::abs(posX[static_cast<std::size_t>(j)] - gx) +
                       std::abs(posY[static_cast<std::size_t>(j)] - gy);
      const std::pair<double, int> e{d, j};
      if (static_cast<int>(ranked.size()) == keep) {
        if (!(e < ranked.back())) return;
        ranked.pop_back();
      }
      ranked.insert(std::upper_bound(ranked.begin(), ranked.end(), e), e);
    };
    if (keep > 0) {
      int hi = static_cast<int>(
          std::lower_bound(sortedX.begin(), sortedX.begin() + n, gx) -
          sortedX.begin());
      int lo = hi - 1;
      while (lo >= 0 || hi < n) {
        // swf*|x - gx| <= full distance (rounding is monotone and the y-term
        // is non-negative), so once both frontiers exceed the current K-th
        // best, no unvisited position can displace a kept pair — even on a
        // distance tie, since the bound comparison is strict.
        const double lbLo =
            lo >= 0 ? swf * (gx - sortedX[static_cast<std::size_t>(lo)]) : kInf;
        const double lbHi =
            hi < n ? swf * (sortedX[static_cast<std::size_t>(hi)] - gx) : kInf;
        if (static_cast<int>(ranked.size()) == keep &&
            std::min(lbLo, lbHi) > ranked.back().first) {
          break;
        }
        if (lbLo <= lbHi) {
          consider(lo);
          --lo;
        } else {
          consider(hi);
          ++hi;
        }
      }
    }
    bool ownIncluded = false;
    for (const auto& [d, j] : ranked) {
      if (j == i) ownIncluded = true;
      const double phi = std::min(config.phiClamp, phiCost(d, config.delta0));
      edges.push_back(
          {i, j, static_cast<CostValue>(std::llround(phi * config.costScale))});
    }
    if (!ownIncluded) {
      const double phi = std::min(
          config.phiClamp,
          phiCost(dispAt(design, group[static_cast<std::size_t>(i)],
                         positions[static_cast<std::size_t>(i)]),
                  config.delta0));
      edges.push_back(
          {i, i, static_cast<CostValue>(std::llround(phi * config.costScale))});
    }
  }

  const auto match = solveAssignment(n, n, edges);
  MCLG_ASSERT(match.has_value(),
              "identity edges guarantee a perfect matching");

  std::vector<std::pair<CellId, Position>> moves;
  for (int i = 0; i < n; ++i) {
    const int j = (*match)[static_cast<std::size_t>(i)];
    if (j == i) continue;
    moves.emplace_back(group[static_cast<std::size_t>(i)],
                       positions[static_cast<std::size_t>(j)]);
  }
  return moves;
}

/// Apply a group's permutation: remove all moved cells first, then
/// re-place (positions are a permutation, so this never collides).
void applyMoves(PlacementState& state,
                const std::vector<std::pair<CellId, Position>>& moves) {
  for (const auto& [cell, pos] : moves) {
    (void)pos;
    state.remove(cell);
  }
  for (const auto& [cell, pos] : moves) {
    state.place(cell, pos.x, pos.y);
  }
}

}  // namespace

namespace {

/// A cell with its (row, x) position: chunks are cut from a group sorted
/// by (row, x, id). Sorting flat keys instead of chasing each cell keeps
/// the sort cache-friendly on groups of thousands of cells.
struct RowMajorKey {
  std::int64_t y;
  std::int64_t x;
  CellId cell;

  bool operator<(const RowMajorKey& o) const {
    if (y != o.y) return y < o.y;
    if (x != o.x) return x < o.x;
    return cell < o.cell;
  }
};

void sortRowMajor(const Design& design, std::vector<CellId>& cells) {
  std::vector<RowMajorKey> keys;
  keys.reserve(cells.size());
  for (const CellId c : cells) {
    keys.push_back({design.cells[c].y, design.cells[c].x, c});
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) cells[i] = keys[i].cell;
}

/// Shared body of the full and focused entry points: when `focus` is
/// non-null, chunks without a focused cell are dropped after grouping (and
/// the stats count only the surviving chunks).
MaxDispStats optimizeMaxDisplacementImpl(PlacementState& state,
                                         const MaxDispConfig& config,
                                         const std::vector<char>* focus) {
  auto& design = state.design();
  MaxDispStats stats;
  const auto publish = [&stats] {
    if (obs::metricsEnabled()) {
      obs::counter("maxdisp.groups").add(stats.groups);
      obs::counter("maxdisp.cells_moved").add(stats.cellsMoved);
    }
    return stats;
  };

  // Group movable placed cells by (type, fence) — or by interchangeable
  // footprint when pin geometry is irrelevant.
  using GroupKey = std::pair<std::int64_t, FenceId>;
  const auto groupKey = [&](CellId c) -> GroupKey {
    const auto& cell = design.cells[c];
    std::int64_t key = cell.type;
    if (config.groupByFootprint) {
      const auto& type = design.typeOf(c);
      key = (((static_cast<std::int64_t>(type.width) * 64 + type.height) * 4 +
              (type.parity + 1)) *
                 64 +
             type.leftEdge) *
                64 +
            type.rightEdge;
    }
    return {key, cell.fence};
  };
  // With a focus, only the groups holding a focused cell can keep a chunk:
  // find their keys first and group only those.
  std::set<GroupKey> focusKeys;
  if (focus != nullptr) {
    for (CellId c = 0; c < design.numCells(); ++c) {
      if ((*focus)[static_cast<std::size_t>(c)] == 0) continue;
      const auto& cell = design.cells[c];
      if (!cell.fixed && cell.placed) focusKeys.insert(groupKey(c));
    }
    if (focusKeys.empty()) return publish();
  }
  std::map<GroupKey, std::vector<CellId>> groups;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const GroupKey key = groupKey(c);
    if (focus != nullptr && focusKeys.count(key) == 0) continue;
    groups[key].push_back(c);
  }

  // Flatten into chunks (oversized groups split into spatially coherent
  // pieces sorted by current row, then x).
  std::vector<std::vector<CellId>> chunks;
  for (auto& [key, cells] : groups) {
    (void)key;
    if (cells.size() < 2) continue;
    stats.cellsConsidered += static_cast<int>(cells.size());
    if (static_cast<int>(cells.size()) <= config.maxGroupSize) {
      chunks.push_back(std::move(cells));
      continue;
    }
    sortRowMajor(design, cells);
    for (std::size_t start = 0; start < cells.size();
         start += static_cast<std::size_t>(config.maxGroupSize)) {
      const std::size_t end = std::min(
          cells.size(), start + static_cast<std::size_t>(config.maxGroupSize));
      if (end - start < 2) break;
      chunks.emplace_back(cells.begin() + static_cast<std::ptrdiff_t>(start),
                          cells.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  if (focus != nullptr) {
    std::erase_if(chunks, [&](const std::vector<CellId>& chunk) {
      return std::none_of(chunk.begin(), chunk.end(), [&](CellId c) {
        return (*focus)[static_cast<std::size_t>(c)] != 0;
      });
    });
    if (config.focusTrim > 0) {
      // Delta-local matching: one stranded cell in a chunk of hundreds
      // should not re-solve the whole chunk. Keep each focused cell plus
      // its focusTrim row-major-nearest group-mates on either side — the
      // candidates a recovery swap could plausibly use — and drop the
      // rest. A sub-chunk matching is still a permutation of existing
      // positions, so legality is preserved.
      for (auto& chunk : chunks) {
        sortRowMajor(design, chunk);
        const int n = static_cast<int>(chunk.size());
        std::vector<char> keep(static_cast<std::size_t>(n), 0);
        for (int j = 0; j < n; ++j) {
          if ((*focus)[static_cast<std::size_t>(
                  chunk[static_cast<std::size_t>(j)])] == 0) {
            continue;
          }
          const int hi = std::min(n - 1, j + config.focusTrim);
          for (int t = std::max(0, j - config.focusTrim); t <= hi; ++t) {
            keep[static_cast<std::size_t>(t)] = 1;
          }
        }
        std::vector<CellId> trimmed;
        for (int j = 0; j < n; ++j) {
          if (keep[static_cast<std::size_t>(j)]) {
            trimmed.push_back(chunk[static_cast<std::size_t>(j)]);
          }
        }
        chunk = std::move(trimmed);
      }
      std::erase_if(chunks, [](const std::vector<CellId>& chunk) {
        return chunk.size() < 2;
      });
    }
    stats.cellsConsidered = 0;
    for (const auto& chunk : chunks) {
      stats.cellsConsidered += static_cast<int>(chunk.size());
    }
  }
  stats.groups = static_cast<int>(chunks.size());

  // Assignment problems are independent and read-only: solve in parallel,
  // apply serially in chunk order (thread-count invariant results).
  std::vector<std::vector<std::pair<CellId, Position>>> allMoves(
      chunks.size());
  config.executor.parallelForBatch(
      static_cast<int>(chunks.size()), config.numThreads, [&](int i) {
    // Spans land on the solving worker's thread track.
    MCLG_TRACE_SCOPE(
        "maxdisp/group",
        {{"cells", static_cast<double>(
              chunks[static_cast<std::size_t>(i)].size())}});
    allMoves[static_cast<std::size_t>(i)] = computeGroupMoves(
        design, config, chunks[static_cast<std::size_t>(i)]);
  });
  for (const auto& moves : allMoves) {
    applyMoves(state, moves);
    stats.cellsMoved += static_cast<int>(moves.size());
  }
  return publish();
}

}  // namespace

MaxDispStats optimizeMaxDisplacement(PlacementState& state,
                                     const MaxDispConfig& config) {
  return optimizeMaxDisplacementImpl(state, config, nullptr);
}

MaxDispStats optimizeMaxDisplacementFocused(PlacementState& state,
                                            const MaxDispConfig& config,
                                            const std::vector<char>& focus) {
  return optimizeMaxDisplacementImpl(state, config, &focus);
}

}  // namespace mclg
