#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eval/block_sum.hpp"
#include "obs/obs.hpp"

namespace mclg {

namespace {

/// One from-scratch pass over the design's cells or nets for a score sum.
void countSumScan() {
  if (obs::metricsEnabled()) {
    static obs::Counter& scans = obs::counter("eval.sum_scans");
    scans.add();
  }
}

}  // namespace

double averageDisplacement(const Design& design,
                           std::span<const double> sumPerHeight) {
  const auto& perHeight = design.cellsPerHeight();
  const int maxHeight = design.maxCellHeight();
  double avg = 0.0;
  for (int h = 1; h <= maxHeight; ++h) {
    if (perHeight[static_cast<std::size_t>(h)] > 0) {
      avg += sumPerHeight[static_cast<std::size_t>(h)] /
             perHeight[static_cast<std::size_t>(h)];
    }
  }
  return avg / maxHeight;
}

DisplacementStats displacementStats(const Design& design) {
  countSumScan();
  DisplacementStats stats;
  std::vector<BlockSum> perHeight(design.cellsPerHeight().size());
  BlockSum sites;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const double disp = design.displacement(c);
    const auto id = static_cast<std::size_t>(c);
    stats.maximum = std::max(stats.maximum, disp);
    sites.add(id, disp / design.siteWidthFactor);
    perHeight[static_cast<std::size_t>(design.heightOf(c))].add(id, disp);
  }
  std::vector<double> sumPerHeight;
  for (const BlockSum& sum : perHeight) sumPerHeight.push_back(sum.total());
  stats.average = averageDisplacement(design, sumPerHeight);
  stats.totalSites = sites.total();
  return stats;
}

double netHpwl(const Design& design, const Net& net, bool useGp) {
  const double fine = static_cast<double>(Design::kFine);
  double xlo = std::numeric_limits<double>::infinity(), xhi = -xlo;
  double ylo = xlo, yhi = -xlo;
  for (const auto& conn : net.conns) {
    const auto& cell = design.cells[conn.cell];
    const auto& type = design.typeOf(conn.cell);
    const auto& pin = type.pins[static_cast<std::size_t>(conn.pin)];
    const bool atGp = useGp || (!cell.placed && !cell.fixed);
    const double cx = atGp ? cell.gpX : static_cast<double>(cell.x);
    const double cy = atGp ? cell.gpY : static_cast<double>(cell.y);
    // Pin center offset in site units (legal positions honor the
    // row-implied orientation; GP has none, so use N).
    const Rect shape = atGp ? pin.rect
                            : pin.rectInOrient(
                                  design.orientationAt(cell.type, cell.y),
                                  type.height);
    const double px =
        cx + static_cast<double>(shape.xlo + shape.xhi) / (2.0 * fine);
    const double py =
        cy + static_cast<double>(shape.ylo + shape.yhi) / (2.0 * fine);
    xlo = std::min(xlo, px);
    xhi = std::max(xhi, px);
    ylo = std::min(ylo, py);
    yhi = std::max(yhi, py);
  }
  // y in rows; convert to site units via the site-width factor so both
  // axes share a unit.
  return (xhi - xlo) + (yhi - ylo) / design.siteWidthFactor;
}

double hpwl(const Design& design, bool useGp) {
  countSumScan();
  BlockSum total;
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    const Net& net = design.nets[n];
    if (net.conns.size() < 2) continue;
    total.add(n, netHpwl(design, net, useGp));
  }
  return total.total();
}

double hpwlIncreaseRatio(const Design& design) {
  const double before = hpwl(design, /*useGp=*/true);
  if (before <= 0.0) return 0.0;
  const double after = hpwl(design, /*useGp=*/false);
  return (after - before) / before;
}

std::uint64_t cellPlacementHash(CellId c, bool placed, std::int64_t x,
                                std::int64_t y) {
  // SplitMix64's output step (Steele, Lea and Flood, 2014): add the golden
  // gamma, then the variant-13 finalizer.
  const auto splitmix64 = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t m =
      splitmix64(2 * static_cast<std::uint64_t>(c) + (placed ? 1 : 0));
  m = splitmix64(m ^ static_cast<std::uint64_t>(x));
  return splitmix64(m ^ static_cast<std::uint64_t>(y));
}

std::uint64_t placementHash(const Design& design) {
  if (obs::metricsEnabled()) {
    static obs::Counter& scans = obs::counter("eval.hash_scans");
    scans.add();
  }
  std::uint64_t h = 0;
  for (CellId c = 0; c < design.numCells(); ++c) {
    const Cell& cell = design.cells[c];
    h += cellPlacementHash(c, cell.placed, cell.x, cell.y);
  }
  return h;
}

}  // namespace mclg
