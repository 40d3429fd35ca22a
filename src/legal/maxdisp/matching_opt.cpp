#include "legal/maxdisp/matching_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

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

RowMajorKey rowMajorKey(const Design& design, CellId c) {
  return {design.cells[c].y, design.cells[c].x, c};
}

void sortRowMajor(const Design& design, std::vector<CellId>& cells) {
  std::vector<RowMajorKey> keys;
  keys.reserve(cells.size());
  for (const CellId c : cells) keys.push_back(rowMajorKey(design, c));
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) cells[i] = keys[i].cell;
}

/// Cells are matched within (type, fence) groups — or (interchangeable
/// footprint, fence) groups when pin geometry is irrelevant.
using GroupKey = std::pair<std::int64_t, FenceId>;

std::int64_t typeKeyOf(const Design& design, const MaxDispConfig& config,
                       TypeId t) {
  if (!config.groupByFootprint) return t;
  const auto& type = design.types[static_cast<std::size_t>(t)];
  return (((static_cast<std::int64_t>(type.width) * 64 + type.height) * 4 +
           (type.parity + 1)) *
              64 +
          type.leftEdge) *
             64 +
         type.rightEdge;
}

GroupKey groupKeyOf(const Design& design, const MaxDispConfig& config,
                    CellId c) {
  const auto& cell = design.cells[c];
  return {typeKeyOf(design, config, cell.type), cell.fence};
}

bool movablePlaced(const Cell& cell) { return !cell.fixed && cell.placed; }

}  // namespace

MaxDispStats matchChunks(PlacementState& state, const MaxDispConfig& config,
                         const std::vector<std::vector<CellId>>& chunks) {
  const Design& design = state.design();
  MaxDispStats stats;
  stats.groups = static_cast<int>(chunks.size());
  for (const auto& chunk : chunks) {
    stats.cellsConsidered += static_cast<int>(chunk.size());
  }

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
  if (obs::metricsEnabled()) {
    obs::counter("maxdisp.groups").add(stats.groups);
    obs::counter("maxdisp.cells_moved").add(stats.cellsMoved);
  }
  return stats;
}

std::vector<std::vector<CellId>> focusedMatchingChunks(
    const PlacementState& state, const MaxDispConfig& config,
    const std::vector<char>& focus) {
  MCLG_ASSERT(config.focusTrim > 0, "focused matching needs a focusTrim");
  const Design& design = state.design();
  // The focused cells, ordered by (group key, row-major position): the
  // groups come out ascending like the full path's std::map, and each
  // group's targets ascending in rank.
  std::vector<std::pair<GroupKey, RowMajorKey>> targets;
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (focus[static_cast<std::size_t>(c)] != 0 &&
        movablePlaced(design.cells[c])) {
      targets.emplace_back(groupKeyOf(design, config, c),
                           rowMajorKey(design, c));
    }
  }
  if (targets.empty()) return {};
  std::sort(targets.begin(), targets.end());
  std::vector<GroupKey> keys;
  for (const auto& [key, at] : targets) {
    if (keys.empty() || keys.back() != key) keys.push_back(key);
  }

  // Group index of each (type, fence), keys.size() for none: a table
  // lookup per cell instead of a key search.
  const auto rows = static_cast<std::size_t>(design.numRows);
  const auto fences = static_cast<std::size_t>(std::max(1, design.numFences()));
  const std::size_t none = keys.size();
  std::vector<std::size_t> slot(
      static_cast<std::size_t>(design.numTypes()) * fences, none);
  for (TypeId t = 0; t < design.numTypes(); ++t) {
    for (std::size_t f = 0; f < fences; ++f) {
      const GroupKey key{typeKeyOf(design, config, t),
                         static_cast<FenceId>(f)};
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      if (it != keys.end() && *it == key) {
        slot[static_cast<std::size_t>(t) * fences + f] =
            static_cast<std::size_t>(it - keys.begin());
      }
    }
  }
  const auto groupOf = [&](CellId c) {
    const Cell& cell = design.cells[c];
    return slot[static_cast<std::size_t>(cell.type) * fences +
                static_cast<std::size_t>(cell.fence)];
  };
  // Members per (group, bottom row) from one scan of the design; cells of
  // no focused group count in the extra group `none`.
  std::vector<std::int64_t> below((keys.size() + 1) * (rows + 1), 0);
  for (CellId c = 0; c < design.numCells(); ++c) {
    const Cell& cell = design.cells[c];
    if (movablePlaced(cell)) {
      ++below[groupOf(c) * (rows + 1) + static_cast<std::size_t>(cell.y) + 1];
    }
  }
  // Prefix sums: below[g][y] is the rank of group g's first member with
  // bottom row y, below[g][rows] the group size.
  for (std::size_t g = 0; g < keys.size(); ++g) {
    std::int64_t* first = &below[g * (rows + 1)];
    std::partial_sum(first, first + rows + 1, first);
  }
  // Members of group g in bottom row y, in x (= row-major) order. The
  // occupancy holds each placed movable cell in every row it spans; a
  // placed cell's x is unique within each of its rows.
  const auto forEachMember = [&](std::size_t g, std::int64_t y,
                                 auto&& visit) {
    for (const auto& [x, c] : state.rowCells(y)) {
      if (design.cells[c].y == y && groupOf(c) == g && !visit(x, c)) return;
    }
  };

  std::vector<std::vector<CellId>> chunks;
  struct KeptRange {
    std::int64_t chunk, lo, hi;  // ranks lo..hi (inclusive) of one chunk
  };
  std::vector<KeptRange> kept;
  for (std::size_t t = 0; t < targets.size();) {
    const auto g = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), targets[t].first) -
        keys.begin());
    const std::int64_t* rankAt = &below[g * (rows + 1)];
    const std::int64_t n = rankAt[rows];
    // Chunks are the row-major slices of maxGroupSize cells (one chunk
    // when the group fits); each focused cell keeps the ranks within
    // focusTrim of its own, clipped to its chunk, so a kept range holds at
    // least two cells. Targets ascend in rank: the kept ranges come out in
    // (chunk, rank) order.
    const std::int64_t size = n > config.maxGroupSize ? config.maxGroupSize : n;
    kept.clear();
    for (; t < targets.size() && targets[t].first == keys[g]; ++t) {
      const RowMajorKey& at = targets[t].second;
      std::int64_t rank = rankAt[at.y];
      forEachMember(g, at.y, [&](std::int64_t x, CellId) {
        if (x >= at.x) return false;
        ++rank;
        return true;
      });
      const std::int64_t chunk = rank / size;
      const std::int64_t first = chunk * size;
      const std::int64_t last = std::min(n, first + size) - 1;
      if (last == first) continue;  // a one-cell tail chunk is not solved
      const std::int64_t lo = std::max(first, rank - config.focusTrim);
      const std::int64_t hi = std::min(last, rank + config.focusTrim);
      if (!kept.empty() && kept.back().chunk == chunk &&
          lo <= kept.back().hi + 1) {
        kept.back().hi = std::max(kept.back().hi, hi);
      } else {
        kept.push_back({chunk, lo, hi});
      }
    }
    // Read each kept range off the rows: from the row holding rank lo,
    // member by member, up to rank hi.
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const KeptRange& range = kept[k];
      if (k == 0 || kept[k - 1].chunk != range.chunk) chunks.emplace_back();
      std::vector<CellId>& chunk = chunks.back();
      std::int64_t y =
          std::upper_bound(rankAt, rankAt + rows, range.lo) - rankAt - 1;
      for (std::int64_t rank = rankAt[y]; rank <= range.hi; ++y) {
        forEachMember(g, y, [&](std::int64_t, CellId c) {
          if (rank >= range.lo) chunk.push_back(c);
          return ++rank <= range.hi;
        });
      }
    }
  }
  return chunks;
}

MaxDispStats optimizeMaxDisplacement(PlacementState& state,
                                     const MaxDispConfig& config) {
  const Design& design = state.design();
  std::map<GroupKey, std::vector<CellId>> groups;
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (movablePlaced(design.cells[c])) {
      groups[groupKeyOf(design, config, c)].push_back(c);
    }
  }

  // Flatten into chunks (oversized groups split into spatially coherent
  // pieces sorted by current row, then x).
  std::vector<std::vector<CellId>> chunks;
  int cellsConsidered = 0;
  for (auto& [key, cells] : groups) {
    (void)key;
    if (cells.size() < 2) continue;
    cellsConsidered += static_cast<int>(cells.size());
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
  MaxDispStats stats = matchChunks(state, config, chunks);
  stats.cellsConsidered = cellsConsidered;
  return stats;
}

MaxDispStats optimizeMaxDisplacementFocused(PlacementState& state,
                                            const MaxDispConfig& config,
                                            const std::vector<char>& focus) {
  return matchChunks(state, config,
                     focusedMatchingChunks(state, config, focus));
}

}  // namespace mclg
