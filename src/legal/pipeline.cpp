#include "legal/pipeline.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <iterator>
#include <string>

#include "baselines/baselines.hpp"
#include "legal/guard/invariants.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace mclg {

StageClock::StageClock()
    : cpuStart_(obs::MetricsSampler::processCpuSeconds()) {}

double StageClock::cpuSeconds() const {
  return obs::MetricsSampler::processCpuSeconds() - cpuStart_;
}

void StageClock::record(PipelineStage stage) const {
  if (!obs::metricsEnabled()) return;
  const std::string base = std::string("stage.") + stageName(stage);
  obs::gauge(base + ".wall_seconds").set(seconds());
  obs::gauge(base + ".cpu_seconds").set(cpuSeconds());
}

PipelineConfig PipelineConfig::contest() {
  PipelineConfig config;
  config.mgl.insertion.gpObjective = true;
  config.mgl.insertion.contestWeights = true;
  config.mgl.insertion.routability = true;
  config.fixedRowOrder.contestWeights = true;
  config.fixedRowOrder.routability = true;
  config.fixedRowOrder.maxDispWeight = 4.0;
  return config;
}

PipelineConfig PipelineConfig::totalDisplacement() {
  PipelineConfig config;
  config.mgl.insertion.gpObjective = true;
  config.mgl.insertion.contestWeights = false;
  config.mgl.insertion.routability = false;
  // In the linear region φ(δ) = δ, the §3.2 matching minimizes the *total*
  // displacement over same-type permutations — exactly the Table 2 metric —
  // so run it with an effectively infinite threshold.
  config.runMaxDisp = true;
  config.maxDisp.delta0 = 1e9;
  // Without routability, any equal-footprint cells can exchange positions,
  // not just same-type ones.
  config.maxDisp.groupByFootprint = true;
  config.fixedRowOrder.contestWeights = false;
  config.fixedRowOrder.routability = false;
  config.fixedRowOrder.maxDispWeight = 0.0;
  return config;
}

std::optional<PipelineConfig> PipelineConfig::preset(const std::string& name) {
  if (name == "contest") return contest();
  if (name == "totaldisp") return totalDisplacement();
  return std::nullopt;
}

void PipelineConfig::setThreads(int numThreads) {
  maxDisp.numThreads = numThreads;
}

void PipelineConfig::propagateExecutor() { maxDisp.executor = executor; }

namespace {

/// One stage of the pipeline. legalize() walks a table of these, running
/// each once (guard off) or as a transaction (guard on).
struct StageDriver {
  PipelineStage id = PipelineStage::Mgl;
  bool enabled = true;
  /// Optional stages may be skipped after rollback; the mandatory MGL stage
  /// degrades to the Tetris baseline instead.
  bool optional = true;
  std::function<void(const Deadline&, int attempt)> run;
  std::function<void()> relax;       // config relaxation for guarded retries
  std::function<void()> resetStats;  // clear stage stats after final rollback
};

// Trace span names need static storage (the trace buffer keeps pointers).
const char* stageSpanName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::Mgl: return "pipeline/mgl";
    case PipelineStage::MaxDisp: return "pipeline/maxdisp";
    case PipelineStage::FixedRowOrder: return "pipeline/mcf";
    case PipelineStage::Ripup: return "pipeline/ripup";
    case PipelineStage::Recovery: return "pipeline/recovery";
  }
  return "pipeline/?";
}

void bumpGuardCounter(const char* name) {
  if (!obs::metricsEnabled()) return;
  obs::counter(name).add();
}

void appendDetail(StageRecord& rec, const std::string& text) {
  if (!rec.detail.empty()) rec.detail += "; ";
  rec.detail += text;
}

const char* errorKindTag(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::Internal: return "internal";
    case ErrorKind::Timeout: return "timeout";
    case ErrorKind::Injected: return "injected";
  }
  return "?";
}

/// Manufacture a genuine overlap via shiftX — which checks core bounds but
/// deliberately not occupancy — so the invariant audit has a real violation
/// to catch. Returns false when the placement offers no safe spot (the
/// caller then falls back to throwing an injected error).
bool corruptPlacement(PlacementState& state) {
  Design& design = state.design();
  for (std::int64_t y = 0; y < design.numRows; ++y) {
    const auto& row = state.rowCells(y);
    for (auto it = row.begin(); it != row.end(); ++it) {
      const auto next = std::next(it);
      if (next == row.end()) break;
      const CellId a = it->second;
      const CellId b = next->second;
      const int wa = design.widthOf(a);
      const int wb = design.widthOf(b);
      for (const std::int64_t newX :
           {it->first + 1, it->first + wa - 1, it->first - 1}) {
        if (newX < 0 || newX + wb > design.numSitesX) continue;
        if (newX >= it->first + wa || newX + wb <= it->first) continue;
        // The occupancy rows key cells by left x; a colliding key in any
        // row b spans would silently drop an entry and desync the index.
        bool keyFree = true;
        const auto& cb = design.cells[b];
        for (std::int64_t r = cb.y; r < cb.y + design.heightOf(b); ++r) {
          const auto& rowMap = state.rowCells(r);
          const auto found = rowMap.find(newX);
          if (found != rowMap.end() && found->second != b) {
            keyFree = false;
            break;
          }
        }
        if (!keyFree) continue;
        state.shiftX(b, newX);
        return true;
      }
    }
  }
  return false;
}

/// Guard off: one attempt under an unlimited deadline, no snapshot or
/// audit; an exception leaves the stage half-applied and propagates.
void runUnguarded(StageDriver& driver, GuardReport& report) {
  StageRecord& rec = report.at(driver.id);
  if (!driver.enabled) {
    rec.status = StageStatus::Disabled;
    return;
  }
  MCLG_TRACE_SCOPE(stageSpanName(driver.id), {{"attempt", 1.0}});
  StageClock total;
  rec.attempts = 1;
  driver.run(Deadline{}, 0);
  rec.status = StageStatus::Ok;
  rec.seconds = total.seconds();
  total.record(driver.id);
}

/// The post-stage audit; counts the Eq. 10 evaluation it makes when the
/// placement passes the legality checks (the guard's only evaluations).
InvariantResult auditStage(const PlacementState& state,
                           const SegmentMap& segments, const GuardConfig& guard,
                           PipelineStage stage, int unplacedBefore,
                           double scoreBefore) {
  InvariantResult audit =
      checkStageInvariants(state.design(), segments, guard.scoreTolerance,
                           stage, unplacedBefore, scoreBefore);
  if (audit.score >= 0.0) bumpGuardCounter("guard.score_evaluations");
  return audit;
}

/// Guard on: snapshot -> stage -> invariant audit -> commit, or roll back
/// and retry / skip / fall back. Never throws on a stage failure.
/// `report.finalScore` scores the current placement (empty before MGL); a
/// committed stage replaces it with its audit's evaluation, a rolled-back
/// one leaves it as it was.
void runGuarded(PlacementState& state, const SegmentMap& segments,
                const GuardConfig& guard, StageDriver& driver,
                GuardReport& report) {
  StageRecord& rec = report.at(driver.id);
  if (!driver.enabled) {
    rec.status = StageStatus::Disabled;
    return;
  }

  StageClock total;
  const PlacementSnapshot before = state.snapshot();
  const int unplacedBefore = countUnplacedMovable(state.design());
  // MGL is first and never skipped, so every later stage starts from a
  // placement an audit has scored.
  const double scoreBefore =
      driver.id != PipelineStage::Mgl && unplacedBefore == 0 &&
              report.finalScore
          ? report.finalScore->score
          : -1.0;
  rec.scoreBefore = scoreBefore;

  const int maxAttempts = std::max(1, guard.maxAttempts);
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    ++rec.attempts;
    bumpGuardCounter("guard.attempts");
    MCLG_TRACE_SCOPE(stageSpanName(driver.id),
                     {{"attempt", static_cast<double>(attempt + 1)}});
    const Deadline deadline =
        guard.faults.armed(driver.id, FaultKind::BudgetExhaust, attempt)
            ? Deadline::expired()
            : Deadline::earliest(Deadline::after(guard.stageBudgetSeconds),
                                 guard.requestDeadline);
    std::string failure;
    try {
      driver.run(deadline, attempt);
      if (guard.faults.armed(driver.id, FaultKind::StageThrow, attempt) ||
          (driver.id != PipelineStage::Mgl &&
           guard.faults.armed(driver.id, FaultKind::TaskThrow, attempt))) {
        // Thrown *after* the stage body so the rollback is exercised on a
        // genuinely mutated placement. Single-threaded stages treat a
        // task fault as a stage fault.
        throw MclgError("injected stage fault", ErrorKind::Injected);
      }
      if (guard.faults.armed(driver.id, FaultKind::InvariantBreak, attempt) &&
          !corruptPlacement(state)) {
        throw MclgError("injected invariant break (no overlap site found)",
                        ErrorKind::Injected);
      }
      // Stages without internal checkpoints detect overage here.
      deadline.checkpoint(stageName(driver.id));
      const InvariantResult audit = auditStage(
          state, segments, guard, driver.id, unplacedBefore, scoreBefore);
      if (audit.ok) {
        rec.scoreAfter = audit.score;
        report.finalScore = audit.breakdown;
        rec.seconds = total.seconds();
        rec.status =
            attempt == 0 ? StageStatus::Ok : StageStatus::OkAfterRetry;
        if (attempt > 0) report.degraded = true;
        total.record(driver.id);
        return;
      }
      failure = "invariant violated: " + audit.violation;
    } catch (const MclgError& e) {
      failure = std::string("[") + errorKindTag(e.kind()) + "] " + e.what();
    } catch (const std::exception& e) {
      failure = std::string("[exception] ") + e.what();
    }
    state.restore(before);
    bumpGuardCounter("guard.rollbacks");
    appendDetail(rec, "attempt " + std::to_string(attempt + 1) + ": " +
                          failure + " -> rolled back");
    if (attempt + 1 >= maxAttempts) break;
    if (driver.relax) {
      driver.relax();
      appendDetail(rec, "retrying with relaxed config");
    }
  }

  // Every attempt failed; the placement equals the pre-stage snapshot.
  if (driver.resetStats) driver.resetStats();
  if (!driver.optional && guard.allowFallback) {
    const BaselineStats fallback = legalizeTetris(state, segments);
    const InvariantResult audit = auditStage(state, segments, guard,
                                             driver.id, unplacedBefore,
                                             scoreBefore);
    if (audit.ok) {
      report.finalScore = audit.breakdown;
      rec.status = StageStatus::FallbackApplied;
      report.degraded = true;
      bumpGuardCounter("guard.fallbacks");
      bumpGuardCounter("guard.degradations");
      rec.scoreAfter = audit.score;
      appendDetail(rec, "tetris fallback placed " +
                            std::to_string(fallback.placed) + " cells");
    } else {
      state.restore(before);
      rec.status = StageStatus::Failed;
      report.failed = true;
      appendDetail(rec, "tetris fallback rejected: " + audit.violation);
    }
  } else if (driver.optional) {
    rec.status = StageStatus::SkippedAfterRollback;
    report.degraded = true;
    bumpGuardCounter("guard.degradations");
    appendDetail(rec, "stage skipped; placement restored");
  } else {
    rec.status = StageStatus::Failed;
    report.failed = true;
    appendDetail(rec, "no degradation allowed; placement restored");
  }
  rec.seconds = total.seconds();
}

}  // namespace

PipelineStats legalize(PlacementState& state, const SegmentMap& segments,
                       const PipelineConfig& config) {
  PipelineConfig cfg = config;  // guarded retries relax this copy
  cfg.propagateExecutor();
  // Unless the caller brought its own, one search arena for the run: MGL's
  // and the rip-up pass's searchers share it, and with it the §3.3 solves
  // share one routability index.
  SearchArena runArena;
  if (cfg.mgl.insertion.arena == nullptr) cfg.mgl.insertion.arena = &runArena;
  const GuardConfig& guard = cfg.guard;
  PipelineStats stats;

  std::array<StageDriver, kNumPipelineStages> drivers;

  StageDriver& mgl = drivers[0];
  mgl.id = PipelineStage::Mgl;
  mgl.optional = false;
  mgl.run = [&](const Deadline& deadline, int attempt) {
    MglConfig mglCfg = cfg.mgl;
    // Unguarded runs keep the caller's checkpoint: nothing would catch a
    // deadline or injected throw, and a caller's own throw must propagate.
    if (guard.enabled) {
      const bool injectThrow = guard.faults.armed(
          PipelineStage::Mgl, FaultKind::TaskThrow, attempt);
      // The injected fault throws from the first cell's checkpoint, after
      // the deadline check.
      mglCfg.checkpoint = [&deadline, injectThrow] {
        deadline.checkpoint("mgl");
        if (injectThrow) {
          throw MclgError("injected worker-task fault", ErrorKind::Injected);
        }
      };
    }
    Timer timer;
    MglLegalizer legalizer(state, segments, mglCfg);
    stats.mgl = legalizer.run();
    stats.secondsMgl += timer.seconds();
  };
  mgl.relax = [&] {
    cfg.mgl.insertion.routability = false;
    cfg.mgl.insertion.respectEdgeSpacing = false;
    cfg.mgl.window.maxExpansions += 2;
  };
  mgl.resetStats = [&] { stats.mgl = {}; };

  StageDriver& maxDisp = drivers[1];
  maxDisp.id = PipelineStage::MaxDisp;
  maxDisp.enabled = cfg.runMaxDisp;
  maxDisp.run = [&](const Deadline&, int) {
    Timer timer;
    stats.maxDisp = optimizeMaxDisplacement(state, cfg.maxDisp);
    stats.secondsMaxDisp += timer.seconds();
  };
  maxDisp.resetStats = [&] { stats.maxDisp = {}; };

  StageDriver& mcf = drivers[2];
  mcf.id = PipelineStage::FixedRowOrder;
  mcf.enabled = cfg.runFixedRowOrder;
  mcf.run = [&](const Deadline&, int) {
    Timer timer;
    const ForbiddenXIndex* forbidden =
        cfg.fixedRowOrder.routability
            ? &cfg.mgl.insertion.arena->forbiddenFor(state.design())
            : nullptr;
    stats.fixedRowOrder =
        optimizeFixedRowOrder(state, segments, cfg.fixedRowOrder, forbidden);
    stats.secondsFixedRowOrder += timer.seconds();
  };
  mcf.relax = [&] { cfg.fixedRowOrder.routability = false; };
  mcf.resetStats = [&] { stats.fixedRowOrder = {}; };

  StageDriver& ripup = drivers[3];
  ripup.id = PipelineStage::Ripup;
  ripup.enabled = cfg.runRipup;
  ripup.run = [&](const Deadline&, int) {
    Timer timer;
    RipupConfig ripupCfg = cfg.ripup;
    ripupCfg.insertion = cfg.mgl.insertion;  // same objective/constraints
    stats.ripup = ripupRefine(state, segments, ripupCfg);
    stats.secondsRipup += timer.seconds();
  };
  ripup.resetStats = [&] { stats.ripup = {}; };

  StageDriver& recovery = drivers[4];
  recovery.id = PipelineStage::Recovery;
  recovery.enabled = cfg.runWirelengthRecovery;
  recovery.run = [&](const Deadline&, int) {
    Timer timer;
    stats.recovery = recoverWirelength(state, segments, cfg.recovery);
    stats.secondsRecovery += timer.seconds();
  };
  recovery.resetStats = [&] { stats.recovery = {}; };

  GuardReport& report = stats.guard;
  for (auto& driver : drivers) {
    if (!guard.enabled) {
      runUnguarded(driver, report);
      continue;
    }
    runGuarded(state, segments, guard, driver, report);
    if (driver.id == PipelineStage::Mgl &&
        report.at(driver.id).status == StageStatus::Failed) {
      // Rolled back to the (unplaced) GP input with no fallback: the later
      // stages have nothing to refine. They stay NotRun.
      break;
    }
  }
  report.infeasibleCells = countUnplacedMovable(state.design());
  return stats;
}

}  // namespace mclg
