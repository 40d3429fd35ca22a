// Reproducible floating-point sums over an id space (cells, nets) that can
// be kept up to date one id at a time — the order behind displacementStats,
// hpwl and the serve session's resident score terms (score_terms.hpp).
//
// The order: ids fall into blocks of kSumBlock; a block's sum adds its
// values in id order, starting from +0.0; the block sums are the leaves of
// a complete binary tree over 2^k leaves (the smallest 2^k ≥ the number of
// blocks), and every node is left + right. An id without a value counts as
// +0.0. Under round-to-nearest no partial sum that starts from +0.0 is ever
// −0.0, and x + (+0.0) == x for every other x, so zeros change nothing:
// skipping an id, padding a block, or growing the tree to more leaves all
// leave the sum as it was. Its value depends on the values alone — not on
// the capacity, nor on whether it was kept (KeptSum, BlockTree::set) or
// computed from scratch (BlockSum).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace mclg {

inline constexpr std::size_t kSumBlock = 64;

/// Blocks covering ids [0, n).
constexpr std::size_t sumBlocks(std::size_t n) {
  return (n + kSumBlock - 1) / kSumBlock;
}

/// The fixed-shape tree over per-block values; `Combine` is the node rule.
/// Zero padding is neutral for std::plus<> (see the file comment) and for
/// MaxOf over values ≥ 0.
template <class Combine>
class BlockTree {
 public:
  BlockTree() = default;

  /// The tree over `blocks`, one value per block.
  static BlockTree of(std::span<const double> blocks) {
    BlockTree tree;
    tree.reserveLeaves(blocks.size());
    std::copy(blocks.begin(), blocks.end(),
              tree.node_.begin() + static_cast<std::ptrdiff_t>(tree.leaves_));
    tree.blocks_ = blocks.size();
    tree.pullAll();
    return tree;
  }

  std::size_t blocks() const { return blocks_; }

  /// Hold `blocks` blocks: new ones are zero, blocks at or beyond it are
  /// dropped (zeroed). The tree never gets fewer leaves.
  void resize(std::size_t blocks) {
    for (std::size_t b = blocks; b < blocks_; ++b) set(b, 0.0);
    if (blocks > leaves_) {
      const std::vector<double> kept(
          node_.begin() + static_cast<std::ptrdiff_t>(leaves_),
          node_.begin() + static_cast<std::ptrdiff_t>(leaves_ + blocks_));
      reserveLeaves(blocks);
      std::copy(kept.begin(), kept.end(),
                node_.begin() + static_cast<std::ptrdiff_t>(leaves_));
      pullAll();
    }
    blocks_ = blocks;
  }

  /// Set one block's value and re-derive its path to the root.
  void set(std::size_t block, double value) {
    std::size_t i = leaves_ + block;
    node_[i] = value;
    while (i > 1) {
      i /= 2;
      node_[i] = Combine{}(node_[2 * i], node_[2 * i + 1]);
    }
  }

  double total() const { return node_[1]; }

 private:
  void reserveLeaves(std::size_t blocks) {
    leaves_ = std::bit_ceil(std::max<std::size_t>(1, blocks));
    node_.assign(2 * leaves_, 0.0);
  }
  void pullAll() {
    for (std::size_t i = leaves_; i-- > 1;) {
      node_[i] = Combine{}(node_[2 * i], node_[2 * i + 1]);
    }
  }

  std::size_t blocks_ = 0;
  std::size_t leaves_ = 1;
  std::vector<double> node_ = std::vector<double>(2, 0.0);
};

struct MaxOf {
  double operator()(double a, double b) const { return std::max(a, b); }
};

using SumTree = BlockTree<std::plus<>>;
using MaxTree = BlockTree<MaxOf>;

/// The from-scratch form: add(id, value) with ascending ids, then total().
class BlockSum {
 public:
  void add(std::size_t id, double value) {
    const std::size_t block = id / kSumBlock;
    if (block >= blocks_.size()) blocks_.resize(block + 1, 0.0);
    blocks_[block] += value;
  }
  double total() const { return SumTree::of(blocks_).total(); }

 private:
  std::vector<double> blocks_;
};

/// Per-id values with their kept sum: set() marks a block, update()
/// re-adds the marked blocks and their paths, total() reads the root.
class KeptSum {
 public:
  /// Hold ids [0, n): new ids are zero, ids at or beyond n are dropped.
  void resize(std::size_t n) {
    if (n < values_.size() && n % kSumBlock != 0) mark(n / kSumBlock);
    values_.resize(n, 0.0);
    tree_.resize(sumBlocks(n));
    marks_.resize(sumBlocks(n), 0);
  }
  void set(std::size_t id, double value) {
    values_[id] = value;
    mark(id / kSumBlock);
  }

  void update() {
    for (const std::size_t b : dirty_) {
      if (b >= tree_.blocks()) continue;
      marks_[b] = 0;
      double sum = 0.0;
      const std::size_t end = std::min(values_.size(), (b + 1) * kSumBlock);
      for (std::size_t id = b * kSumBlock; id < end; ++id) sum += values_[id];
      tree_.set(b, sum);
    }
    dirty_.clear();
  }
  /// \pre update() has run since the last set() or resize().
  double total() const { return tree_.total(); }

 private:
  void mark(std::size_t block) {
    if (block >= marks_.size()) marks_.resize(block + 1, 0);
    if (marks_[block] == 0) {
      marks_[block] = 1;
      dirty_.push_back(block);
    }
  }

  std::vector<double> values_;
  SumTree tree_;
  std::vector<char> marks_;
  std::vector<std::size_t> dirty_;
};

}  // namespace mclg
