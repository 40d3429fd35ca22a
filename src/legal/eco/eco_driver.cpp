#include "legal/eco/eco_driver.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "eval/checkers.hpp"
#include "eval/score.hpp"
#include "legal/eco/delta_tracker.hpp"
#include "legal/guard/invariants.hpp"
#include "legal/maxdisp/matching_opt.hpp"
#include "legal/mcfopt/fixed_row_order.hpp"
#include "legal/mgl/insertion.hpp"
#include "legal/mgl/mgl_legalizer.hpp"
#include "legal/mgl/window.hpp"
#include "legal/refine/feasible_range.hpp"
#include "legal/refine/ripup_refine.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace mclg {
namespace {

/// Remove every placed movable cell, returning the state to "all unplaced"
/// — the precondition of a full pipeline run.
void unplaceAllMovable(PlacementState& state) {
  const Design& design = state.design();
  for (CellId c = 0; c < design.numCells(); ++c) {
    const Cell& cell = design.cells[c];
    if (!cell.fixed && cell.placed) state.remove(c);
  }
}

/// True iff cell c of `design` can be placed at (x, y) right now: in core,
/// parity-legal, and the span is free. Mirrors the MCLG_ASSERT checks of
/// PlacementState::place so a corrupt snapshot degrades instead of aborting.
bool placeable(const PlacementState& state, CellId c, std::int64_t x,
               std::int64_t y) {
  const Design& design = state.design();
  const int h = design.heightOf(c);
  const int w = design.widthOf(c);
  if (y < 0 || y + h > design.numRows) return false;
  if (x < 0 || x + w > design.numSitesX) return false;
  if (!design.parityOk(design.cells[c].type, y)) return false;
  return state.spanEmpty(y, h, x, w);
}

struct Coverage {
  long long cleanTiles = 0;  ///< the report's `eco.reused_windows`
  bool coversCore = false;
};

/// The covers-core test on the level-0 window tile grid: mark the tiles
/// that each dirty cell's level-0 window reaches, widened by the cover
/// halo, at its GP target and at its vacated spot (`previous`, parallel to
/// `dirty`). The core is covered when at least 90% of the tiles are dirty.
Coverage dirtyCoverage(const Design& design, const std::vector<CellId>& dirty,
                       const std::vector<PlacementSnapshot::CellPos>& previous,
                       const WindowParams& params) {
  const std::int64_t tileW = std::max(1, params.initialW);
  const std::int64_t tileH = std::max(1, params.initialH);
  const std::int64_t tilesX = (design.numSitesX + tileW - 1) / tileW;
  const std::int64_t tilesY = (design.numRows + tileH - 1) / tileH;
  const std::int64_t total = tilesX * tilesY;
  if (total <= 0) return {};
  const Rect core{0, 0, design.numSitesX, design.numRows};
  std::vector<char> tile(static_cast<std::size_t>(total), 0);
  const auto mark = [&](double x, double y, const CellType& type) {
    const Rect w = makeWindow(design, x, y, type, params, 0);
    const Rect r = Rect{w.xlo - kEcoCoverHaloSites, w.ylo - kEcoCoverHaloRows,
                        w.xhi + kEcoCoverHaloSites, w.yhi + kEcoCoverHaloRows}
                       .intersect(core);
    if (r.xlo >= r.xhi || r.ylo >= r.yhi) return;
    const std::int64_t txHi = std::min((r.xhi + tileW - 1) / tileW, tilesX);
    const std::int64_t tyHi = std::min((r.yhi + tileH - 1) / tileH, tilesY);
    for (std::int64_t ty = r.ylo / tileH; ty < tyHi; ++ty) {
      for (std::int64_t tx = r.xlo / tileW; tx < txHi; ++tx) {
        tile[static_cast<std::size_t>(ty * tilesX + tx)] = 1;
      }
    }
  };
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const Cell& cell = design.cells[dirty[i]];
    const CellType& type = design.typeOf(dirty[i]);
    mark(cell.gpX, cell.gpY, type);
    if (const PlacementSnapshot::CellPos& old = previous[i]; old.placed) {
      mark(static_cast<double>(old.x), static_cast<double>(old.y), type);
    }
  }
  const std::int64_t dirtyTiles = std::count(tile.begin(), tile.end(), 1);
  return {total - dirtyTiles, dirtyTiles >= total * 9 / 10};
}

void fullRun(PlacementState& state, const SegmentMap& segments,
             const EcoConfig& config, EcoStats* stats, const char* reason) {
  stats->usedFullRun = true;
  stats->fallbackReason = reason;
  MCLG_LOG_INFO() << "eco: falling back to a full run (" << reason << ")";
  unplaceAllMovable(state);
  const PipelineStats pipe = legalize(state, segments, config.pipeline);
  stats->mgl = pipe.mgl;
}

}  // namespace

EcoSeed seedFromSnapshot(PlacementState& state, const Design& snapshot) {
  Timer timer;
  const Design& design = state.design();
  EcoSeed seed;
  seed.delta = DeltaTracker::diff(design, snapshot);
  if (seed.delta.structural) {
    seed.seconds = timer.seconds();
    return seed;
  }
  const std::vector<CellId> dirty = seed.delta.dirtyCells();
  std::vector<char> isDirty(static_cast<std::size_t>(design.numCells()), 0);
  for (const CellId c : dirty) {
    isDirty[static_cast<std::size_t>(c)] = 1;
    const bool old = c < snapshot.numCells();
    seed.previous.push_back(old ? PlacementSnapshot::CellPos{
                                      snapshot.cells[c].x, snapshot.cells[c].y,
                                      snapshot.cells[c].placed}
                                : PlacementSnapshot::CellPos{});
  }
  // Clean cells at their snapshot positions, dirty cells unplaced.
  unplaceAllMovable(state);
  for (CellId c = 0; c < snapshot.numCells(); ++c) {
    const Cell& old = snapshot.cells[c];
    if (old.fixed || !old.placed || isDirty[static_cast<std::size_t>(c)]) {
      continue;
    }
    if (placeable(state, c, old.x, old.y)) {
      state.place(c, old.x, old.y);
    } else {
      // The snapshot position is not replayable (corrupt file, overlap with
      // an edited fixed region): let MGL find this cell a spot instead.
      seed.unreplayable.push_back(c);
    }
  }
  seed.seconds = timer.seconds();
  return seed;
}

EcoSeed seedFromLog(PlacementState& state, const EditLog& log) {
  Timer timer;
  const Design& design = state.design();
  EcoSeed seed;
  seed.cleanCellsLegal = true;
  // Only a cell logged since the commit can differ from the committed
  // placement. DeltaTracker::diff classifies the design *before* seeding,
  // when a resized cell still held its request-start position, so classify
  // the GP target / type / fence of now with the placed / x / y of the
  // request start.
  DeltaSet& delta = seed.delta;
  std::vector<CellId> clean;
  for (const CellId c : log.commitChanges()) {
    if (c >= log.committedCells()) {
      delta.added.push_back(c);
      continue;
    }
    Cell view = design.cells[c];
    const Cell& start = log.atRequestStart(c);
    view.placed = start.placed;
    view.x = start.x;
    view.y = start.y;
    switch (classifyEdit(view, log.atCommit(c))) {
      case CellEdit::Moved:
        delta.moved.push_back(c);
        break;
      case CellEdit::Resized:
        delta.resized.push_back(c);
        break;
      case CellEdit::Clean:
        clean.push_back(c);
        break;
    }
  }
  for (const CellId c : delta.dirtyCells()) {
    const Cell& old = c < log.committedCells() ? log.atCommit(c) : Cell{};
    seed.previous.push_back({old.x, old.y, old.placed});
    if (design.cells[c].placed) state.remove(c);
  }

  // Every clean cell sits at its committed spot, except one a resize op
  // took out of the index and a later op resized back: re-place it there.
  // Clean cells hold their committed spots with their committed types,
  // which did not overlap, so the snapshot seeding's placeable() test
  // passes for each of them (checked all the same, as it is there).
  for (const CellId c : clean) {
    const Cell& cell = design.cells[c];
    if (cell.placed || !log.atCommit(c).placed) continue;
    if (placeable(state, c, cell.x, cell.y)) {
      state.place(c, cell.x, cell.y);
    } else {
      seed.unreplayable.push_back(c);
    }
  }
  seed.seconds = timer.seconds();
  return seed;
}

EcoStats ecoRelegalize(PlacementState& state, const SegmentMap& segments,
                       const Design& snapshot, const EcoConfig& config) {
  return ecoRelegalize(state, segments, seedFromSnapshot(state, snapshot),
                       config);
}

EcoStats ecoRelegalize(PlacementState& state, const SegmentMap& segments,
                       const EcoSeed& seed, const EcoConfig& userConfig) {
  // Stage configs are copied out of config.pipeline below; propagating the
  // executor here once covers all of them (and the full-run bailout path).
  EcoConfig config = userConfig;
  config.pipeline.propagateExecutor();
  // Unless the caller brought its own (a serve session keeps one per
  // design), one search arena for the request: its searchers share it, and
  // with it the stage-3 solves share one routability index.
  SearchArena runArena;
  if (config.pipeline.mgl.insertion.arena == nullptr) {
    config.pipeline.mgl.insertion.arena = &runArena;
  }
  // The request-scoped budget also bounds any guarded full-run fallback or
  // shadow run: fold it into the guard's per-stage deadline.
  config.pipeline.guard.requestDeadline = Deadline::earliest(
      config.pipeline.guard.requestDeadline, config.requestDeadline);
  Design& design = state.design();
  EcoStats stats;
  Timer incrementalTimer;
  const auto incrementalSeconds = [&] {
    return seed.seconds + incrementalTimer.seconds();
  };
  MCLG_TRACE_SCOPE("eco/relegalize");

  // 1. The classified edits.
  const DeltaSet& delta = seed.delta;
  stats.movedCells = static_cast<int>(delta.moved.size());
  stats.resizedCells = static_cast<int>(delta.resized.size());
  stats.addedCells = static_cast<int>(delta.added.size());
  const std::vector<CellId> dirty = delta.dirtyCells();
  stats.dirtyCells = static_cast<int>(dirty.size());

  if (delta.structural) {
    fullRun(state, segments, config, &stats,
            delta.structuralReason.c_str());
    stats.secondsIncremental = incrementalSeconds();
    return stats;
  }

  config.requestDeadline.checkpoint("eco/diff");

  // 2. Edits spread over the whole core: run the full pipeline instead.
  const Coverage coverage =
      dirtyCoverage(design, dirty, seed.previous, config.pipeline.mgl.window);
  stats.reusedWindows = coverage.cleanTiles;
  if (coverage.coversCore) {
    fullRun(state, segments, config, &stats, "dirty region covers the core");
    stats.secondsIncremental = incrementalSeconds();
    return stats;
  }

  // The cells this run re-places: the dirty ones and the unreplayable
  // clean ones, ascending. Every set below is a sorted list of cell ids, so
  // the bookkeeping costs what the edit touches, not the design's size.
  std::vector<CellId> replaced;
  std::set_union(dirty.begin(), dirty.end(), seed.unreplayable.begin(),
                 seed.unreplayable.end(), std::back_inserter(replaced));
  stats.dirtyCells += static_cast<int>(seed.unreplayable.size());

  // 3. Stage 1 on the dirty set only (MGL legalizes the unplaced cells),
  // with a tracker recording the spill onto clean neighbors. The tracker
  // takes the state's one listener slot and forwards to whatever listener
  // it displaced (a serve session's undo log), which sees every change.
  PlacementListener* const outerListener = state.listener();
  DeltaTracker tracker(outerListener);
  state.setListener(&tracker);
  // A request-budget checkpoint below may throw out of this function;
  // never leave the caller's state pointing at the local tracker.
  struct DetachListener {
    PlacementState& state;
    PlacementListener* outer;
    ~DetachListener() { state.setListener(outer); }
  } detachListener{state, outerListener};
  config.requestDeadline.checkpoint("eco/stage1");
  {
    MCLG_TRACE_SCOPE("eco/stage1");
    MglLegalizer mgl(state, segments, config.pipeline.mgl);
    stats.mgl = mgl.run();
  }

  // Focus of the recovery passes: the re-placed cells plus every clean
  // cell the incremental stages have displaced so far, ascending.
  auto touchedFocus = [&]() {
    const std::vector<CellId>& touched = tracker.touched();
    std::vector<CellId> focus;
    std::set_union(replaced.begin(), replaced.end(), touched.begin(),
                   touched.end(), std::back_inserter(focus));
    return focus;
  };

  // 3b. Rip-up & re-insert the worst-displaced touched cells: insertion
  // into an almost-full placement strands some dirty cells far from their
  // GP target; re-running the window search with the freed displacement as
  // a cost ceiling recovers most of that tail (full-pipeline quality is the
  // reference, and the full run re-places everything from scratch). The
  // pass is focused on dirty-or-touched cells so it cannot churn clean
  // regions, and the between-pass MCF re-solve is off — Stage 3 below
  // solves each dirty component anyway.
  config.requestDeadline.checkpoint("eco/ripup");
  {
    MCLG_TRACE_SCOPE("eco/ripup");
    RipupConfig ripup = config.pipeline.ripup;
    ripup.insertion = config.pipeline.mgl.insertion;
    ripup.displacementThreshold = config.ripupThreshold;
    ripup.mcfResolve = false;
    // Half the standalone refiner's search window: the incremental
    // insertion already searched (and expanded) full MGL windows, so the
    // rip-up only needs to catch nearby spots that freed up since — and the
    // pass has to stay cheap relative to the dirty set for the ECO speedup
    // to survive at scale.
    ripup.windowW = config.pipeline.ripup.windowW / 2;
    ripup.windowH = config.pipeline.ripup.windowH / 2;
    stats.ripupImproved =
        ripupRefine(state, segments, ripup, touchedFocus()).improved;
  }

  // 3c. Stage 2 (§3.2 matching) focused on the still-stranded tail: the
  // touched cells whose displacement stayed above the rip-up threshold,
  // i.e. the ones the greedy re-insertion failed to recover. It runs last
  // of the two because its φ(δ) cost explodes past δ0 and therefore
  // crushes exactly the max-displacement tail — a stranded cell swaps
  // positions with a same-type clean neighbor in its group. Restricting
  // the focus to the tail (rather than everything touched) keeps the pass
  // proportional to the damage, not to the dirty-region population. The
  // listener stays attached throughout so every recovery move counts as
  // spill and its component gets the Stage-3 treatment below.
  config.requestDeadline.checkpoint("eco/stage2");
  if (config.pipeline.runMaxDisp) {
    MCLG_TRACE_SCOPE("eco/stage2");
    std::vector<CellId> focus = touchedFocus();
    std::erase_if(focus, [&](CellId c) {
      return design.displacement(c) <= config.ripupThreshold;
    });
    MaxDispConfig matchConfig = config.pipeline.maxDisp;
    // One locality knob for both recovery solvers: the matching, like
    // stage 3 below, only needs the delta's neighborhood, not the whole
    // chunk a stranded cell happens to share a type with.
    matchConfig.focusTrim = kEcoChainHalo;
    stats.matchedCellsMoved =
        optimizeMaxDisplacementFocused(state, matchConfig, focus).cellsMoved;
  }
  // Every cell the incremental stages placed or moved, ascending. The
  // tracker stays attached through stage 3, whose moves the audit needs.
  const std::vector<CellId> marked = touchedFocus();
  stats.spilledCells = static_cast<int>(marked.size() - replaced.size());

  // 4. Stage 3 per dirty constraint component, one cold solve each (the
  // header says why a second would not help). maxDispWeight couples all
  // cells globally (§3.3.1), so the per-component solves force it off — an
  // approximation vs. the full pipeline, covered by the score tolerance.
  config.requestDeadline.checkpoint("eco/stage3");
  if (config.pipeline.runFixedRowOrder) {
    MCLG_TRACE_SCOPE("eco/stage3");
    FixedRowOrderConfig froConfig = config.pipeline.fixedRowOrder;
    froConfig.maxDispWeight = 0.0;
    // The dirty components are those holding a dirty or touched cell.
    // Delta-local trimming: on a dense design the constraint components
    // span most of the netlist, so solving a whole component per request
    // would cost as much as a cold full-design stage 3. Keep only the
    // cells within kEcoChainHalo chain positions of a dirty/touched cell —
    // they share its row, hence its component — and solve each dirty
    // component's kept cells; everything further acts as a fixed wall
    // (range clamp) in the solve. Only the rows holding a dirty or touched
    // cell can keep anything.
    std::vector<std::int64_t> rowsHit;
    for (const CellId c : marked) {
      const Cell& cell = design.cells[c];
      if (!cell.placed) continue;
      for (std::int64_t y = cell.y; y < cell.y + design.heightOf(c); ++y) {
        rowsHit.push_back(y);
      }
    }
    std::sort(rowsHit.begin(), rowsHit.end());
    rowsHit.erase(std::unique(rowsHit.begin(), rowsHit.end()), rowsHit.end());
    std::vector<CellId> kept;
    std::vector<CellId> row;
    for (const std::int64_t y : rowsHit) {
      row.clear();
      for (const auto& [x, c] : state.rowCells(y)) {
        (void)x;
        row.push_back(c);
      }
      const int n = static_cast<int>(row.size());
      for (int j = 0; j < n; ++j) {
        if (!std::binary_search(marked.begin(), marked.end(),
                                row[static_cast<std::size_t>(j)])) {
          continue;
        }
        const int hi = std::min(n - 1, j + kEcoChainHalo);
        for (int t = std::max(0, j - kEcoChainHalo); t <= hi; ++t) {
          kept.push_back(row[static_cast<std::size_t>(t)]);
        }
      }
    }
    const std::vector<std::vector<CellId>> subsets =
        fixedRowOrderComponents(state, kept);
    // One routability index for every solve: the search arena's.
    const ForbiddenXIndex* forbidden =
        froConfig.routability
            ? &config.pipeline.mgl.insertion.arena->forbiddenFor(design)
            : nullptr;
    for (const auto& subset : subsets) {
      ++stats.dirtySegments;
      stats.mcfCellsMoved +=
          optimizeFixedRowOrderSubset(state, segments, froConfig, subset,
                                      forbidden)
              .cellsMoved;
    }
  }

  config.requestDeadline.checkpoint("eco/audit");

  // 5. Audit: any hard violation degrades to the full pipeline. With a
  // seed that vouches for its clean cells, the cells this run placed or
  // moved — stage 3 included — are the only ones that can be illegal: a
  // cell none of them touched keeps its legal spot and can only overlap a
  // moved cell, which cellsLegal checks against both row neighbours. Only
  // when one of them is illegal does the whole-design check decide.
  std::vector<CellId> audited = touchedFocus();
  state.setListener(outerListener);
  if (seed.cleanCellsLegal && cellsLegal(state, segments, audited)) {
    stats.auditedLegal = std::move(audited);
  } else {
    const LegalityReport audit = checkLegality(design, segments);
    if (audit.overlaps > 0 || audit.outOfCore > 0 ||
        audit.parityViolations > 0 || audit.fenceViolations > 0) {
      fullRun(state, segments, config, &stats, "incremental audit failed");
    }
  }
  stats.secondsIncremental = incrementalSeconds();

  // 6. Exactness: shadow full run on a scratch copy; adopt it in exact
  // mode so the output is byte-identical to a full re-run.
  if (config.exact || config.validate) {
    Timer shadowTimer;
    MCLG_TRACE_SCOPE("eco/shadow");
    Design fullDesign = design;
    for (auto& cell : fullDesign.cells) {
      if (!cell.fixed) cell.placed = false;
    }
    SegmentMap fullSegments(fullDesign);
    PlacementState fullState(fullDesign);
    legalize(fullState, fullSegments, config.pipeline);
    const InvariantResult equiv = checkEcoEquivalence(
        design, fullDesign, segments, config.scoreTolerance, config.exact);
    stats.scoreIncremental = equiv.score;
    stats.scoreFull = evaluateScore(fullDesign, fullSegments).score;
    if (config.exact) {
      // Adopt the full placement wholesale: every movable cell takes the
      // shadow run's position (or becomes unplaced where it failed).
      unplaceAllMovable(state);
      for (CellId c = 0; c < design.numCells(); ++c) {
        const Cell& full = fullDesign.cells[c];
        if (full.fixed || !full.placed) continue;
        state.place(c, full.x, full.y);
      }
      stats.exactVerified = true;
      stats.scoreIncremental = stats.scoreFull;
      stats.auditedLegal.clear();
    } else {
      stats.exactVerified = equiv.ok;
      if (!equiv.ok) {
        MCLG_LOG_WARN() << "eco: equivalence check failed: "
                        << equiv.violation;
      }
    }
    stats.secondsShadow = shadowTimer.seconds();
  }

  if (obs::metricsEnabled()) {
    obs::counter("eco.dirty_cells").add(stats.dirtyCells);
    obs::counter("eco.spilled_cells").add(stats.spilledCells);
  }
  return stats;
}

PipelineStats ecoPipelineStats(const EcoStats& eco) {
  PipelineStats stats;
  stats.mgl = eco.mgl;
  stats.secondsMgl = eco.secondsIncremental;
  return stats;
}

}  // namespace mclg
