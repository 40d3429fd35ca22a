// Network simplex for min-cost flow, first-eligible (round-robin) pivot rule.
//
// Follows the classic primal network simplex structure (cf. LEMON's
// NetworkSimplex and Király & Kovács, arXiv:1207.6381, which the paper cites
// as its solver): an artificial root node is connected to every node by a
// big-cost artificial arc forming the initial spanning tree; pivots push
// flow around the cycle closed by an eligible non-tree arc and exchange it
// with a blocking tree arc. The leaving-arc tie-break (strict '<' on the
// source-side path, '<=' on the target-side path) keeps the basis strongly
// feasible, which prevents cycling on degenerate instances.
//
// The spanning tree is stored as parent/pred-arc plus first-child/
// next-sibling lists; a pivot re-roots and re-potentials only the subtree
// that moves, so the per-pivot cost is proportional to that subtree.
//
// The working arrays (~15 of them) live in one per-thread Simplex instance
// that survives between solves: the legalizer solves hundreds of small
// problems back to back, and allocating the arrays per solve would dominate
// them. Every solve starts cold from the artificial-root basis, so the
// reuse is invisible to callers.

#include <algorithm>
#include <cmath>

#include "flow/mcf.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace mclg {

int McfProblem::addArc(int src, int dst, FlowValue cap, CostValue cost) {
  MCLG_ASSERT(src >= 0 && src < numNodes(), "arc source out of range");
  MCLG_ASSERT(dst >= 0 && dst < numNodes(), "arc target out of range");
  MCLG_ASSERT(src != dst, "self-loop arcs are not supported");
  MCLG_ASSERT(cap >= 0, "negative arc capacity");
  arcs_.push_back({src, dst, cap, cost});
  return static_cast<int>(arcs_.size()) - 1;
}

long double McfSolution::costOf(const McfProblem& problem,
                                const std::vector<FlowValue>& flow) {
  long double total = 0.0L;
  for (int a = 0; a < problem.numArcs(); ++a) {
    total += static_cast<long double>(flow[a]) *
             static_cast<long double>(problem.arc(a).cost);
  }
  return total;
}

namespace {

constexpr int kStateTree = 0;
constexpr int kStateLower = 1;
constexpr int kStateUpper = -1;

struct Simplex {
  McfSolution solve(const McfProblem& p) {
    build(p);
    long long pivots = 0;
    bool unbounded = false;
    for (int inArc = findEnteringArc(); inArc >= 0;
         inArc = findEnteringArc()) {
      ++pivots;
      if (!pivot(inArc)) {
        unbounded = true;
        break;
      }
    }
    if (obs::metricsEnabled()) {
      obs::counter("mcf.simplex.solves").add();
      obs::counter("mcf.simplex.pivots").add(pivots);
    }
    return extract(p, unbounded);
  }

  // --- setup ---------------------------------------------------------------

  void build(const McfProblem& p) {
    n_ = p.numNodes();
    m_ = p.numArcs();
    root_ = n_;
    const int allArcs = m_ + n_;
    src_.resize(static_cast<std::size_t>(allArcs));
    dst_.resize(static_cast<std::size_t>(allArcs));
    cap_.resize(static_cast<std::size_t>(allArcs));
    cost_.resize(static_cast<std::size_t>(allArcs));
    flow_.assign(static_cast<std::size_t>(allArcs), 0);
    state_.assign(static_cast<std::size_t>(allArcs), kStateLower);

    CostValue maxCost = 1;
    for (int a = 0; a < m_; ++a) {
      const auto& arc = p.arc(a);
      src_[a] = arc.src;
      dst_[a] = arc.dst;
      cap_[a] = arc.cap;
      cost_[a] = arc.cost;
      maxCost = std::max<CostValue>(maxCost, std::llabs(arc.cost));
    }
    // Big-M cost for artificial arcs: larger than any simple-path cost.
    artCost_ = (maxCost + 1) * static_cast<CostValue>(n_ + 1);

    parent_.assign(static_cast<std::size_t>(n_) + 1, root_);
    predArc_.assign(static_cast<std::size_t>(n_) + 1, -1);
    firstChild_.assign(static_cast<std::size_t>(n_) + 1, -1);
    nextSibling_.assign(static_cast<std::size_t>(n_) + 1, -1);
    prevSibling_.assign(static_cast<std::size_t>(n_) + 1, -1);
    pi_.assign(static_cast<std::size_t>(n_) + 1, 0);
    parent_[root_] = -1;

    for (int v = 0; v < n_; ++v) {
      const int a = m_ + v;
      const FlowValue b = p.supply(v);
      if (b >= 0) {
        src_[a] = v;
        dst_[a] = root_;
        flow_[a] = b;
        pi_[v] = -artCost_;
      } else {
        src_[a] = root_;
        dst_[a] = v;
        flow_[a] = -b;
        pi_[v] = artCost_;
      }
      cap_[a] = kInfiniteCap;
      cost_[a] = artCost_;
      state_[a] = kStateTree;
      predArc_[v] = a;
      attachChild(root_, v);
    }
    // succNum is only needed for LCA; pivots maintain it incrementally.
    succNum_.assign(static_cast<std::size_t>(n_) + 1, 1);
    succNum_[root_] = n_ + 1;
    nextScan_ = 0;
  }

  // --- simplex core --------------------------------------------------------

  void attachChild(int parent, int child) {
    parent_[child] = parent;
    prevSibling_[child] = -1;
    nextSibling_[child] = firstChild_[parent];
    if (firstChild_[parent] >= 0) prevSibling_[firstChild_[parent]] = child;
    firstChild_[parent] = child;
  }

  void detachChild(int child) {
    const int parent = parent_[child];
    if (prevSibling_[child] >= 0) {
      nextSibling_[prevSibling_[child]] = nextSibling_[child];
    } else {
      firstChild_[parent] = nextSibling_[child];
    }
    if (nextSibling_[child] >= 0) {
      prevSibling_[nextSibling_[child]] = prevSibling_[child];
    }
    prevSibling_[child] = nextSibling_[child] = -1;
    parent_[child] = -1;
  }

  CostValue reducedCost(int a) const {
    return cost_[a] + pi_[src_[a]] - pi_[dst_[a]];
  }

  bool eligible(int a) const {
    if (state_[a] == kStateTree) return false;
    const CostValue rc = reducedCost(a);
    return (state_[a] == kStateLower && rc < 0) ||
           (state_[a] == kStateUpper && rc > 0);
  }

  /// First-eligible pivot rule: resume the scan where the last one stopped.
  /// Two plain ranges instead of one modulo walk — this scan is the solver's
  /// innermost loop and the per-arc division was measurable.
  int findEnteringArc() {
    const int allArcs = m_ + n_;
    for (int a = nextScan_; a < allArcs; ++a) {
      if (eligible(a)) {
        nextScan_ = a + 1 == allArcs ? 0 : a + 1;
        return a;
      }
    }
    for (int a = 0; a < nextScan_; ++a) {
      if (eligible(a)) {
        nextScan_ = a + 1;
        return a;
      }
    }
    return -1;
  }

  /// true iff arc predArc_[u] points from u to its parent.
  bool forward(int u) const { return src_[predArc_[u]] == u; }

  /// One tree-path step of the pivot cycle, recorded while climbing to the
  /// lowest common ancestor so the leaving-arc search and the augmentation
  /// can replay the paths from flat arrays instead of re-chasing parent
  /// pointers (the walks are the pivot's cache-miss hotspot).
  struct CycleStep {
    int arc;
    int node;  // the child endpoint of `arc` (the walked-from node)
    bool fwd;  // src_[arc] == node
  };

  /// Climb both endpoints to their LCA, recording each side's path bottom-up.
  /// Subtree sizes strictly increase toward the root, so repeatedly lifting
  /// the smaller-subtree endpoint converges to the lowest common ancestor.
  int findJoin(int u, int v) {
    pathU_.clear();
    pathV_.clear();
    while (u != v) {
      if (succNum_[u] < succNum_[v]) {
        const int a = predArc_[u];
        pathU_.push_back({a, u, src_[a] == u});
        u = parent_[u];
      } else {
        const int a = predArc_[v];
        pathV_.push_back({a, v, src_[a] == v});
        v = parent_[v];
      }
    }
    return u;
  }

  /// Returns false iff the pivot reveals an uncapacitated negative cycle.
  bool pivot(int inArc) {
    const int u = src_[inArc];
    const int v = dst_[inArc];
    const bool lower = state_[inArc] == kStateLower;
    const int first = lower ? u : v;
    const int second = lower ? v : u;
    findJoin(u, v);
    // pathU_/pathV_ now hold the cycle's two tree paths bottom-up; the
    // "first" path (strict '<' in the leaving rule) starts at the entering
    // arc's tail when it enters from its lower bound, at its head otherwise.
    const auto& firstPath = lower ? pathU_ : pathV_;
    const auto& secondPath = lower ? pathV_ : pathU_;

    // --- find leaving arc (strongly feasible rule) ---
    FlowValue delta =
        cap_[inArc] >= kInfiniteCap ? kInfiniteCap : cap_[inArc];
    int result = 0;  // 0: bound flip, 1: leave on first path, 2: second path
    int uOut = -1;
    std::size_t uOutIdx = 0;
    for (std::size_t i = 0; i < firstPath.size(); ++i) {
      const CycleStep& s = firstPath[i];
      const FlowValue d =
          s.fwd ? flow_[s.arc]
                : (cap_[s.arc] >= kInfiniteCap ? kInfiniteCap
                                               : cap_[s.arc] - flow_[s.arc]);
      if (d < delta) {
        delta = d;
        result = 1;
        uOut = s.node;
        uOutIdx = i;
      }
    }
    for (std::size_t i = 0; i < secondPath.size(); ++i) {
      const CycleStep& s = secondPath[i];
      const FlowValue d =
          s.fwd ? (cap_[s.arc] >= kInfiniteCap ? kInfiniteCap
                                               : cap_[s.arc] - flow_[s.arc])
                : flow_[s.arc];
      if (d <= delta) {
        delta = d;
        result = 2;
        uOut = s.node;
        uOutIdx = i;
      }
    }
    if (delta >= kInfiniteCap) return false;  // unbounded

    // --- augment along the cycle ---
    if (delta > 0) {
      const FlowValue val = static_cast<FlowValue>(state_[inArc]) * delta;
      flow_[inArc] += val;
      for (const CycleStep& s : pathU_) {
        flow_[s.arc] += s.fwd ? -val : val;
      }
      for (const CycleStep& s : pathV_) {
        flow_[s.arc] += s.fwd ? val : -val;
      }
    }

    if (result == 0) {
      // Bound flip: the entering arc itself was blocking.
      state_[inArc] = -state_[inArc];
      return true;
    }

    // --- exchange arcs and restructure the tree ---
    const int outArc = predArc_[uOut];
    state_[outArc] = flow_[outArc] == 0 ? kStateLower : kStateUpper;

    // The disconnected subtree T2 (rooted at uOut) contains `first` when the
    // leaving arc was found on the first path, `second` otherwise. Re-root
    // T2 at that endpoint and hang it from the other side via the entering
    // arc.
    const int newRoot = result == 1 ? first : second;
    const int newParent = result == 1 ? second : first;

    // Update subtree sizes. T2 moves from under uOut's old parent to under
    // newParent; both ancestor chains pass through the join, and above it
    // the -movedSize / +movedSize walks cancel exactly, so only the two
    // disjoint below-join segments change — and those are sub-ranges of the
    // recorded cycle paths (no parent-pointer walks to the root).
    const int movedSize = succNum_[uOut];
    const auto& outPath = result == 1 ? firstPath : secondPath;
    const auto& inPath = result == 1 ? secondPath : firstPath;
    for (std::size_t i = uOutIdx + 1; i < outPath.size(); ++i) {
      succNum_[outPath[i].node] -= movedSize;
    }
    for (const CycleStep& s : inPath) {
      succNum_[s.node] += movedSize;
    }
    detachChild(uOut);

    // Re-root T2 at newRoot by reversing parent pointers on the path
    // newRoot -> uOut.
    reroot(newRoot, uOut);

    // Attach T2 under newParent via the entering arc.
    attachChild(newParent, newRoot);
    predArc_[newRoot] = inArc;
    state_[inArc] = kStateTree;

    // Update potentials of all nodes in T2 so the entering arc's reduced
    // cost becomes zero (sigma computed with the *old* potentials).
    const CostValue sigma = dst_[inArc] == newRoot
                                ? reducedCost(inArc)
                                : -reducedCost(inArc);
    addPotential(newRoot, sigma);
    return true;
  }

  /// Reverse parent pointers along the path from newRoot up to oldRoot,
  /// keeping predArc consistent (arc of each reversed edge moves to the new
  /// child) and subtree sizes correct within the moved subtree.
  void reroot(int newRoot, int oldRoot) {
    if (newRoot == oldRoot) return;
    // Collect the path newRoot -> oldRoot.
    path_.clear();
    for (int w = newRoot; w != oldRoot; w = parent_[w]) path_.push_back(w);
    path_.push_back(oldRoot);
    // Reverse each edge (path_[i] -> path_[i+1]) to (path_[i+1] -> path_[i]).
    for (std::size_t i = path_.size(); i-- > 1;) {
      const int child = path_[i - 1];
      const int par = path_[i];
      // Remove child from par's children (parent pointers still old).
      detachChild(child);
      // par becomes child of `child`.
      attachChild(child, par);
      predArc_[par] = predArc_[child];
    }
    predArc_[newRoot] = -1;
    // Recompute subtree sizes along the reversed path: every former ancestor
    // loses the nodes that are now above it.
    // After reversal, path_[k] (k>0) is a child of path_[k-1]. Sizes:
    // succNum of the whole moved tree stays at the new root.
    const int total = succNum_[oldRoot];
    // Walk from oldRoot down the reversed path recomputing sizes.
    // Old succNum values along the path are still the pre-reversal ones for
    // indices > current; compute new sizes bottom-up on the path.
    // New size of path_[i] = total - (old size of path_[i-1]) for i >= 1,
    // where "old size" is the pre-reversal subtree size.
    // Save old sizes first.
    oldSizes_.resize(path_.size());
    for (std::size_t i = 0; i < path_.size(); ++i) {
      oldSizes_[i] = succNum_[path_[i]];
    }
    succNum_[newRoot] = total;
    for (std::size_t i = 1; i < path_.size(); ++i) {
      succNum_[path_[i]] = total - oldSizes_[i - 1];
    }
  }

  /// Add sigma to the potential of every node in the subtree rooted at v.
  void addPotential(int v, CostValue sigma) {
    if (sigma == 0) return;
    stack_.clear();
    stack_.push_back(v);
    while (!stack_.empty()) {
      const int w = stack_.back();
      stack_.pop_back();
      pi_[w] += sigma;
      for (int c = firstChild_[w]; c != -1; c = nextSibling_[c]) {
        stack_.push_back(c);
      }
    }
  }

  // --- result extraction ---------------------------------------------------

  McfSolution extract(const McfProblem& p, bool unbounded) const {
    McfSolution sol;
    sol.status = unbounded ? McfStatus::Unbounded : McfStatus::Optimal;
    for (int v = 0; v < n_ && sol.status == McfStatus::Optimal; ++v) {
      if (flow_[m_ + v] != 0) sol.status = McfStatus::Infeasible;
    }
    if (sol.status != McfStatus::Optimal) return sol;
    sol.flow.assign(flow_.begin(), flow_.begin() + m_);
    sol.potential.assign(pi_.begin(), pi_.begin() + n_);
    sol.totalCost = McfSolution::costOf(p, sol.flow);
    return sol;
  }

  int n_ = 0, m_ = 0, root_ = 0;
  CostValue artCost_ = 0;
  std::vector<int> src_, dst_;
  std::vector<FlowValue> cap_, flow_;
  std::vector<CostValue> cost_, pi_;
  std::vector<int> state_;
  std::vector<int> parent_, predArc_;
  std::vector<int> firstChild_, nextSibling_, prevSibling_;
  std::vector<int> succNum_;
  std::vector<int> path_, stack_;
  std::vector<int> oldSizes_;
  std::vector<CycleStep> pathU_, pathV_;
  int nextScan_ = 0;
};

bool suppliesBalanced(const McfProblem& problem) {
  FlowValue total = 0;
  for (int v = 0; v < problem.numNodes(); ++v) total += problem.supply(v);
  return total == 0;
}

}  // namespace

McfSolution NetworkSimplex::solve(const McfProblem& problem) {
  if (!suppliesBalanced(problem)) {
    McfSolution sol;
    sol.status = McfStatus::Infeasible;
    return sol;
  }
  // One arena per thread, so the thread pools that solve independent
  // subproblems concurrently never share one.
  thread_local Simplex simplex;
  return simplex.solve(problem);
}

bool verifyMcfOptimality(const McfProblem& problem, const McfSolution& sol) {
  if (sol.status != McfStatus::Optimal) return false;
  if (static_cast<int>(sol.flow.size()) != problem.numArcs()) return false;
  if (static_cast<int>(sol.potential.size()) != problem.numNodes()) {
    return false;
  }
  std::vector<FlowValue> net(problem.numNodes(), 0);
  for (int a = 0; a < problem.numArcs(); ++a) {
    const auto& arc = problem.arc(a);
    const FlowValue f = sol.flow[a];
    if (f < 0 || f > arc.cap) return false;
    net[arc.src] += f;
    net[arc.dst] -= f;
  }
  for (int v = 0; v < problem.numNodes(); ++v) {
    if (net[v] != problem.supply(v)) return false;
  }
  // Complementary slackness.
  for (int a = 0; a < problem.numArcs(); ++a) {
    const auto& arc = problem.arc(a);
    const CostValue rc =
        arc.cost + sol.potential[arc.src] - sol.potential[arc.dst];
    if (rc > 0 && sol.flow[a] != 0) return false;
    if (rc < 0 && sol.flow[a] != arc.cap) return false;
  }
  return true;
}

}  // namespace mclg
