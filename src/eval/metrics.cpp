#include "eval/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

namespace mclg {

DisplacementStats displacementStats(const Design& design) {
  DisplacementStats stats;
  const auto perHeight = design.cellsPerHeight();
  const int maxHeight = design.maxCellHeight();
  std::vector<double> sumPerHeight(perHeight.size(), 0.0);
  for (CellId c = 0; c < design.numCells(); ++c) {
    const auto& cell = design.cells[c];
    if (cell.fixed || !cell.placed) continue;
    const double disp = design.displacement(c);
    stats.maximum = std::max(stats.maximum, disp);
    stats.totalSites += disp / design.siteWidthFactor;
    sumPerHeight[static_cast<std::size_t>(design.heightOf(c))] += disp;
  }
  double avg = 0.0;
  for (int h = 1; h <= maxHeight; ++h) {
    if (perHeight[static_cast<std::size_t>(h)] > 0) {
      avg += sumPerHeight[static_cast<std::size_t>(h)] /
             perHeight[static_cast<std::size_t>(h)];
    }
  }
  stats.average = avg / maxHeight;
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
  double total = 0.0;
  for (const auto& net : design.nets) {
    if (net.conns.size() < 2) continue;
    total += netHpwl(design, net, useGp);
  }
  return total;
}

double hpwlIncreaseRatio(const Design& design) {
  const double before = hpwl(design, /*useGp=*/true);
  if (before <= 0.0) return 0.0;
  const double after = hpwl(design, /*useGp=*/false);
  return (after - before) / before;
}

std::uint64_t placementHash(const Design& design) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;  // FNV prime
  // kPrime^k mod 2^64. XOR-ing a zero byte leaves the state as it is, so
  // the k high zero bytes of a value fold into one multiply by kPrime^k:
  // the same FNV-1a over all 8 bytes, at a third of the multiplies for the
  // small coordinates of a placement (this runs once per serve request).
  static constexpr std::array<std::uint64_t, 9> kPrimePower = [] {
    std::array<std::uint64_t, 9> power{};
    power[0] = 1;
    for (std::size_t k = 1; k < power.size(); ++k) {
      power[k] = power[k - 1] * kPrime;
    }
    return power;
  }();
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    const int bytes = (std::bit_width(v) + 7) / 8;
    for (int byte = 0; byte < bytes; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= kPrime;
    }
    h *= kPrimePower[static_cast<std::size_t>(8 - bytes)];
  };
  for (const auto& cell : design.cells) {
    mix(cell.placed ? 1 : 0);
    mix(static_cast<std::uint64_t>(cell.x));
    mix(static_cast<std::uint64_t>(cell.y));
  }
  return h;
}

}  // namespace mclg
