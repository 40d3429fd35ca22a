#include "eval/score_terms.hpp"

#include <algorithm>

#include "eval/checkers.hpp"
#include "eval/metrics.hpp"

namespace mclg {

ScoreTerms::ScoreTerms(const PlacementState& state, const SegmentMap& segments)
    : state_(&state), segments_(&segments) {
  const Design& design = state.design();
  const auto numCells = static_cast<std::size_t>(design.numCells());
  const auto numRows = static_cast<std::size_t>(design.numRows);

  fixedRows_.resize(numRows);
  for (CellId c = 0; c < design.numCells(); ++c) {
    const Cell& cell = design.cells[c];
    if (!cell.fixed) continue;
    ++fixedCells_;
    const int h = design.heightOf(c);
    for (std::int64_t y = std::max<std::int64_t>(0, cell.y);
         y < std::min(cell.y + h, design.numRows); ++y) {
      fixedRows_[static_cast<std::size_t>(y)].push_back(
          {cell.x, design.widthOf(c), c, cell.y});
    }
  }
  for (auto& row : fixedRows_) {
    std::sort(row.begin(), row.end(),
              [](const RowCellEntry& a, const RowCellEntry& b) {
                return a.x != b.x ? a.x < b.x : a.cell < b.cell;
              });
  }

  counted_.resize(numCells);
  pins_.resize(numCells);
  disp_.assign(numCells, 0.0);
  cellHash_.resize(numCells);
  int maxHeight = 1;
  for (const CellType& type : design.types) {
    maxHeight = std::max(maxHeight, type.height);
  }
  dispByHeight_.resize(static_cast<std::size_t>(maxHeight) + 1);
  heightSums_.resize(dispByHeight_.size());
  rowMark_.assign(numRows, 0);
  for (CellId c = 0; c < design.numCells(); ++c) {
    count(c, +1);
    const Cell& cell = design.cells[c];
    cellHash_[static_cast<std::size_t>(c)] =
        cellPlacementHash(c, cell.placed, cell.x, cell.y);
    hash_ += cellHash_[static_cast<std::size_t>(c)];
  }
  for (const std::int64_t y : rows_) rowMark_[static_cast<std::size_t>(y)] = 0;
  rows_.clear();
  const std::size_t numBlocks = sumBlocks(numCells);
  for (SumTree& tree : dispByHeight_) tree.resize(numBlocks);
  dispSites_.resize(numBlocks);
  dispMax_.resize(numBlocks);
  for (std::size_t b = 0; b < numBlocks; ++b) sumBlock(b);
  blockMark_.assign(numBlocks, 0);
  blocks_.clear();
  edgeRow_.resize(numRows);
  for (std::int64_t y = 0; y < design.numRows; ++y) {
    edgeRow_[static_cast<std::size_t>(y)] = rowEdgeViolations(y);
    edgeTotal_ += edgeRow_[static_cast<std::size_t>(y)];
  }

  const auto numNets = design.nets.size();
  gpNet_.resize(numNets);
  legalNet_.resize(numNets);
  netMark_.assign(numNets, 0);
  netStart_.assign(numCells + 1, 0);
  std::vector<NetId> lastNet(numCells, -1);
  for (std::size_t n = 0; n < numNets; ++n) {
    const Net& net = design.nets[n];
    if (net.conns.size() >= 2) {
      gpNet_.set(n, netHpwl(design, net, /*useGp=*/true));
      legalNet_.set(n, netHpwl(design, net, /*useGp=*/false));
    }
    for (const Net::Conn& conn : net.conns) {
      NetId& last = lastNet[static_cast<std::size_t>(conn.cell)];
      if (last == static_cast<NetId>(n)) continue;
      last = static_cast<NetId>(n);
      ++netStart_[static_cast<std::size_t>(conn.cell) + 1];
    }
  }
  gpNet_.update();
  legalNet_.update();
  for (std::size_t c = 0; c < numCells; ++c) netStart_[c + 1] += netStart_[c];
  netIds_.resize(netStart_[numCells]);
  std::vector<std::size_t> fill(netStart_.begin(), netStart_.end() - 1);
  std::fill(lastNet.begin(), lastNet.end(), -1);
  for (std::size_t n = 0; n < numNets; ++n) {
    for (const Net::Conn& conn : design.nets[n].conns) {
      const auto c = static_cast<std::size_t>(conn.cell);
      if (lastNet[c] == static_cast<NetId>(n)) continue;
      lastNet[c] = static_cast<NetId>(n);
      netIds_[fill[c]++] = static_cast<NetId>(n);
    }
  }
}

std::span<const NetId> ScoreTerms::netsOf(CellId c) const {
  if (c < 0 || static_cast<std::size_t>(c) + 1 >= netStart_.size()) return {};
  const auto c1 = static_cast<std::size_t>(c);
  return {netIds_.data() + netStart_[c1], netStart_[c1 + 1] - netStart_[c1]};
}

void ScoreTerms::markRows(std::int64_t y, int h) {
  for (std::int64_t row = y; row < y + h; ++row) {
    char& mark = rowMark_[static_cast<std::size_t>(row)];
    if (mark == 0) {
      mark = 1;
      rows_.push_back(row);
    }
  }
}

void ScoreTerms::markBlock(CellId c) {
  const std::size_t block = static_cast<std::size_t>(c) / kSumBlock;
  if (block >= blockMark_.size()) blockMark_.resize(block + 1, 0);
  if (blockMark_[block] == 0) {
    blockMark_[block] = 1;
    blocks_.push_back(block);
  }
}

void ScoreTerms::sumBlock(std::size_t block) {
  // displacementStats() adds the same values in the same order.
  const double siteWidthFactor = state_->design().siteWidthFactor;
  std::fill(heightSums_.begin(), heightSums_.end(), 0.0);
  double sites = 0.0;
  double maximum = 0.0;
  const std::size_t end = std::min(counted_.size(), (block + 1) * kSumBlock);
  for (std::size_t c = block * kSumBlock; c < end; ++c) {
    if (!counted_[c].placed) continue;
    const double disp = disp_[c];
    heightSums_[static_cast<std::size_t>(counted_[c].h)] += disp;
    sites += disp / siteWidthFactor;
    maximum = std::max(maximum, disp);
  }
  for (std::size_t h = 0; h < dispByHeight_.size(); ++h) {
    dispByHeight_[h].set(block, heightSums_[h]);
  }
  dispSites_.set(block, sites);
  dispMax_.set(block, maximum);
}

void ScoreTerms::count(CellId c, int sign) {
  Counted& counted = counted_[static_cast<std::size_t>(c)];
  PinViolationReport& pins = pins_[static_cast<std::size_t>(c)];
  if (sign < 0) {
    if (!counted.placed) return;
    markRows(counted.y, counted.h);
    pinTotal_.shorts -= pins.shorts;
    pinTotal_.access -= pins.access;
    counted = {};
    pins = {};
    disp_[static_cast<std::size_t>(c)] = 0.0;
    markBlock(c);
    return;
  }
  const Design& design = state_->design();
  const Cell& cell = design.cells[c];
  if (cell.fixed || !cell.placed) return;
  counted = {cell.y, design.heightOf(c), true};
  markRows(counted.y, counted.h);
  disp_[static_cast<std::size_t>(c)] = design.displacement(c);
  markBlock(c);
  pins = pinViolationsAt(design, cell.type, cell.x, cell.y);
  pinTotal_.shorts += pins.shorts;
  pinTotal_.access += pins.access;
}

int ScoreTerms::rowEdgeViolations(std::int64_t y) {
  // The row's cells, movable and fixed, in x order, as
  // countEdgeSpacingViolations lists them.
  const Design& design = state_->design();
  const auto& fixed = fixedRows_[static_cast<std::size_t>(y)];
  merged_.clear();
  auto nextFixed = fixed.begin();
  for (const auto& [x, c] : state_->rowCells(y)) {
    for (; nextFixed != fixed.end() && nextFixed->x <= x; ++nextFixed) {
      merged_.push_back(*nextFixed);
    }
    merged_.push_back({x, design.widthOf(c), c, design.cells[c].y});
  }
  merged_.insert(merged_.end(), nextFixed, fixed.end());

  return rowEdgeSpacingViolations(design, y, merged_);
}

void ScoreTerms::refresh(const std::vector<CellId>& cells) {
  const Design& design = state_->design();
  const auto numCells = static_cast<std::size_t>(design.numCells());
  if (counted_.size() < numCells) {
    counted_.resize(numCells);
    pins_.resize(numCells);
    disp_.resize(numCells, 0.0);
    cellHash_.resize(numCells, 0);
  }
  for (const CellId c : cells) {
    const auto c1 = static_cast<std::size_t>(c);
    if (c1 < counted_.size()) {
      count(c, -1);
      hash_ -= cellHash_[c1];
      cellHash_[c1] = 0;
    }
    if (c1 >= numCells) continue;
    count(c, +1);
    const Cell& cell = design.cells[c];
    cellHash_[c1] = cellPlacementHash(c, cell.placed, cell.x, cell.y);
    hash_ += cellHash_[c1];
    for (const NetId n : netsOf(c)) {
      char& mark = netMark_[static_cast<std::size_t>(n)];
      if (mark == 0) {
        mark = 1;
        nets_.push_back(n);
      }
    }
  }
  // Cells dropped from the design stop contributing.
  for (std::size_t c = numCells; c < counted_.size(); ++c) {
    count(static_cast<CellId>(c), -1);
    hash_ -= cellHash_[c];
  }
  counted_.resize(numCells);
  pins_.resize(numCells);
  disp_.resize(numCells);
  cellHash_.resize(numCells);

  for (const std::int64_t y : rows_) {
    int& row = edgeRow_[static_cast<std::size_t>(y)];
    edgeTotal_ -= row;
    row = rowEdgeViolations(y);
    edgeTotal_ += row;
    rowMark_[static_cast<std::size_t>(y)] = 0;
  }
  rows_.clear();
  const std::size_t numBlocks = sumBlocks(numCells);
  for (SumTree& tree : dispByHeight_) tree.resize(numBlocks);
  dispSites_.resize(numBlocks);
  dispMax_.resize(numBlocks);
  for (const std::size_t block : blocks_) {
    if (block < numBlocks) sumBlock(block);
    blockMark_[block] = 0;
  }
  blocks_.clear();
  for (const NetId n : nets_) {
    const Net& net = design.nets[static_cast<std::size_t>(n)];
    if (net.conns.size() >= 2) {
      gpNet_.set(static_cast<std::size_t>(n), netHpwl(design, net, true));
      legalNet_.set(static_cast<std::size_t>(n), netHpwl(design, net, false));
    }
    netMark_[static_cast<std::size_t>(n)] = 0;
  }
  nets_.clear();
  gpNet_.update();
  legalNet_.update();
}

ScoreBreakdown ScoreTerms::evaluate(const std::vector<CellId>* changed,
                                    std::span<const CellId> audited) const {
  const Design& design = state_->design();
  ScoreBreakdown out;
  std::vector<double> sumPerHeight;
  for (const SumTree& tree : dispByHeight_) {
    sumPerHeight.push_back(tree.total());
  }
  out.displacement.average = averageDisplacement(design, sumPerHeight);
  out.displacement.maximum = dispMax_.total();
  out.displacement.totalSites = dispSites_.total();
  // hpwlIncreaseRatio() of the kept sums.
  const double before = gpNet_.total();
  if (before > 0.0) out.hpwlRatio = (legalNet_.total() - before) / before;
  out.pins = pinTotal_;
  out.edgeSpacing = edgeTotal_;
  const bool legal =
      changed != nullptr &&
      (std::includes(audited.begin(), audited.end(), changed->begin(),
                     changed->end()) ||
       cellsLegal(*state_, *segments_, *changed));
  out.legality = legal ? LegalityReport{} : checkLegality(design, *segments_);
  out.score = combineScore(out.displacement.average, out.displacement.maximum,
                           out.hpwlRatio, out.pins.total(), out.edgeSpacing,
                           design.numCells() - fixedCells_);
  return out;
}

}  // namespace mclg
