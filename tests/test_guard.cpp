// Pipeline guard tests: every FaultPlan injection point, transactional
// rollback (byte-identical PlacementState restore), degradation policies
// (retry / skip / Tetris fallback), budget exhaustion, and the per-stage
// records and exception propagation of unguarded runs, and the run-outcome
// rule every front end derives its status from.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "flow/serve/serve_protocol.hpp"
#include "flow/worker_protocol.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/guard/guard.hpp"
#include "legal/guard/invariants.hpp"
#include "legal/pipeline.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/executor/executor.hpp"

namespace mclg {
namespace {

GenSpec guardSpec(std::uint64_t seed) {
  GenSpec spec;
  spec.cellsPerHeight = {300, 40, 15, 8};
  spec.density = 0.6;
  spec.numFences = 1;
  spec.numBlockages = 1;
  spec.seed = seed;
  return spec;
}

PipelineConfig guardedConfig() {
  PipelineConfig config = PipelineConfig::contest();
  config.guard.enabled = true;
  return config;
}

TEST(Guard, FaultPlanArmsExactKeys) {
  FaultPlan plan;
  plan.add(PipelineStage::MaxDisp, FaultKind::StageThrow, 1);
  EXPECT_TRUE(plan.armed(PipelineStage::MaxDisp, FaultKind::StageThrow, 1));
  EXPECT_FALSE(plan.armed(PipelineStage::MaxDisp, FaultKind::StageThrow, 0));
  EXPECT_FALSE(plan.armed(PipelineStage::MaxDisp, FaultKind::TaskThrow, 1));
  EXPECT_FALSE(plan.armed(PipelineStage::Mgl, FaultKind::StageThrow, 1));
  EXPECT_FALSE(FaultPlan().armed(PipelineStage::Mgl, FaultKind::StageThrow, 0));
}

TEST(Guard, FaultPlanFromSeedIsDeterministic) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const FaultPlan a = FaultPlan::fromSeed(seed);
    const FaultPlan b = FaultPlan::fromSeed(seed);
    ASSERT_EQ(a.specs().size(), 1u);
    EXPECT_EQ(a.specs()[0].stage, b.specs()[0].stage);
    EXPECT_EQ(a.specs()[0].kind, b.specs()[0].kind);
    EXPECT_EQ(a.specs()[0].attempt, b.specs()[0].attempt);
  }
}

TEST(Guard, DeadlineExpiredThrowsTimeout) {
  const Deadline unlimited;
  EXPECT_NO_THROW(unlimited.checkpoint("test"));
  EXPECT_FALSE(Deadline::after(0.0).expiredNow());  // <= 0 means unlimited
  const Deadline expired = Deadline::expired();
  EXPECT_TRUE(expired.expiredNow());
  try {
    expired.checkpoint("test");
    FAIL() << "expected MclgError";
  } catch (const MclgError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Timeout);
  }
}

TEST(Guard, ThreadPoolPropagatesTaskExceptions) {
  Executor executor(3);
  EXPECT_THROW(executor.parallelForBatch(16, 4,
                                         [](int i) {
                                           if (i == 7) {
                                             throw MclgError(
                                                 "boom", ErrorKind::Injected);
                                           }
                                         }),
               MclgError);
  // The executor must stay usable for the next batch.
  std::atomic<int> ran{0};
  executor.parallelForBatch(8, 4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(Guard, CleanGuardedRunMatchesUnguarded) {
  Design guarded = generate(guardSpec(11));
  Design plain = generate(guardSpec(11));
  {
    SegmentMap segments(plain);
    PlacementState state(plain);
    legalize(state, segments, PipelineConfig::contest());
  }
  SegmentMap segments(guarded);
  PlacementState state(guarded);
  const auto stats = legalize(state, segments, guardedConfig());

  EXPECT_FALSE(stats.guard.degraded);
  EXPECT_FALSE(stats.guard.failed);
  EXPECT_EQ(stats.guard.infeasibleCells, 0);
  for (const PipelineStage stage :
       {PipelineStage::Mgl, PipelineStage::MaxDisp,
        PipelineStage::FixedRowOrder}) {
    EXPECT_EQ(stats.guard.at(stage).status, StageStatus::Ok);
    EXPECT_EQ(stats.guard.at(stage).attempts, 1);
  }
  EXPECT_EQ(stats.guard.at(PipelineStage::Ripup).status,
            StageStatus::Disabled);
  EXPECT_EQ(stats.guard.at(PipelineStage::Recovery).status,
            StageStatus::Disabled);
  // The audit is read-only: a clean guarded run is bit-identical to the
  // unguarded flow.
  for (CellId c = 0; c < guarded.numCells(); ++c) {
    EXPECT_EQ(guarded.cells[c].x, plain.cells[c].x);
    EXPECT_EQ(guarded.cells[c].y, plain.cells[c].y);
  }
}

/// `guard.score_evaluations` over one legalize() with metrics on.
long long scoreEvaluations(Design& design, const PipelineConfig& config,
                           PipelineStats* statsOut) {
  obs::setMetricsEnabled(true);
  obs::metricsReset();
  SegmentMap segments(design);
  PlacementState state(design);
  *statsOut = legalize(state, segments, config);
  const long long evaluations =
      obs::counter("guard.score_evaluations").value();
  obs::setMetricsEnabled(false);
  obs::metricsReset();
  return evaluations;
}

// Each audit scores the placement it accepts, and the next stage takes that
// score as its pre-stage score: a default guarded run (MGL, §3.2, §3.3)
// evaluates Eq. 10 three times, once per audit.
TEST(Guard, DefaultGuardedRunScoresOncePerAudit) {
  Design design = generate(guardSpec(11));
  PipelineStats stats;
  EXPECT_EQ(scoreEvaluations(design, guardedConfig(), &stats), 3);
  const GuardReport& guard = stats.guard;
  EXPECT_FALSE(guard.degraded);
  EXPECT_EQ(guard.at(PipelineStage::Mgl).scoreBefore, -1.0);
  EXPECT_GT(guard.at(PipelineStage::Mgl).scoreAfter, 0.0);
  EXPECT_EQ(guard.at(PipelineStage::MaxDisp).scoreBefore,
            guard.at(PipelineStage::Mgl).scoreAfter);
  EXPECT_EQ(guard.at(PipelineStage::FixedRowOrder).scoreBefore,
            guard.at(PipelineStage::MaxDisp).scoreAfter);
}

// A skipped stage restores the pre-stage placement, so the next stage's
// pre-stage score is the one the skipped stage started from.
TEST(Guard, SkippedStageHandsOnItsScoreBefore) {
  Design design = generate(guardSpec(16));
  PipelineConfig config = guardedConfig();
  config.guard.maxAttempts = 2;
  config.guard.faults.add(PipelineStage::MaxDisp, FaultKind::StageThrow, 0);
  config.guard.faults.add(PipelineStage::MaxDisp, FaultKind::StageThrow, 1);
  PipelineStats stats;
  // MGL's and §3.3's audits; the thrown §3.2 attempts never reach theirs.
  EXPECT_EQ(scoreEvaluations(design, config, &stats), 2);
  const GuardReport& guard = stats.guard;
  EXPECT_EQ(guard.at(PipelineStage::MaxDisp).status,
            StageStatus::SkippedAfterRollback);
  EXPECT_EQ(guard.at(PipelineStage::MaxDisp).scoreBefore,
            guard.at(PipelineStage::Mgl).scoreAfter);
  EXPECT_EQ(guard.at(PipelineStage::FixedRowOrder).scoreBefore,
            guard.at(PipelineStage::Mgl).scoreAfter);
  EXPECT_EQ(guard.at(PipelineStage::FixedRowOrder).status, StageStatus::Ok);
}

// Every stage recovers from a StageThrow on the first attempt by rolling
// back and retrying; the fault is keyed to attempt 0, so attempt 1 is clean.
TEST(Guard, StageThrowRetriesEveryStage) {
  for (const PipelineStage stage :
       {PipelineStage::Mgl, PipelineStage::MaxDisp,
        PipelineStage::FixedRowOrder, PipelineStage::Ripup,
        PipelineStage::Recovery}) {
    Design design = generate(guardSpec(12));
    SegmentMap segments(design);
    PlacementState state(design);
    PipelineConfig config = guardedConfig();
    config.runRipup = true;
    config.runWirelengthRecovery = true;
    // This test targets the throw/rollback/retry mechanics; keep the score
    // audit from reacting to the HPWL-vs-displacement trade of recovery.
    config.guard.scoreTolerance = 0.5;
    config.guard.faults.add(stage, FaultKind::StageThrow, 0);
    const auto stats = legalize(state, segments, config);
    EXPECT_EQ(stats.guard.at(stage).status, StageStatus::OkAfterRetry)
        << stageName(stage);
    EXPECT_EQ(stats.guard.at(stage).attempts, 2) << stageName(stage);
    EXPECT_TRUE(stats.guard.degraded);
    EXPECT_FALSE(stats.guard.failed);
    EXPECT_TRUE(checkLegality(design, segments).legal()) << stageName(stage);
  }
}

TEST(Guard, TaskThrowInParallelMglRecovers) {
  Design design = generate(guardSpec(13));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = guardedConfig();
  config.setThreads(4);
  config.guard.faults.add(PipelineStage::Mgl, FaultKind::TaskThrow, 0);
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.guard.at(PipelineStage::Mgl).status,
            StageStatus::OkAfterRetry);
  EXPECT_NE(stats.guard.at(PipelineStage::Mgl).detail.find("[injected]"),
            std::string::npos);
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

TEST(Guard, BudgetExhaustRollsBackWithTimeout) {
  for (const PipelineStage stage :
       {PipelineStage::Mgl, PipelineStage::MaxDisp}) {
    Design design = generate(guardSpec(14));
    SegmentMap segments(design);
    PlacementState state(design);
    PipelineConfig config = guardedConfig();
    config.guard.faults.add(stage, FaultKind::BudgetExhaust, 0);
    const auto stats = legalize(state, segments, config);
    EXPECT_EQ(stats.guard.at(stage).status, StageStatus::OkAfterRetry)
        << stageName(stage);
    EXPECT_NE(stats.guard.at(stage).detail.find("[timeout]"),
              std::string::npos)
        << stats.guard.at(stage).detail;
    EXPECT_TRUE(checkLegality(design, segments).legal());
  }
}

TEST(Guard, InvariantBreakIsCaughtByAudit) {
  Design design = generate(guardSpec(15));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = guardedConfig();
  config.guard.faults.add(PipelineStage::MaxDisp, FaultKind::InvariantBreak,
                          0);
  const auto stats = legalize(state, segments, config);
  const auto& rec = stats.guard.at(PipelineStage::MaxDisp);
  EXPECT_EQ(rec.status, StageStatus::OkAfterRetry);
  EXPECT_NE(rec.detail.find("invariant violated"), std::string::npos)
      << rec.detail;
  EXPECT_TRUE(checkLegality(design, segments).legal());
}

// When an optional stage fails every attempt, the guard skips it and the
// placement must be restored byte-identically to the pre-stage snapshot —
// i.e. exactly the MGL result.
TEST(Guard, SkipRestoresByteIdenticalPlacement) {
  Design reference = generate(guardSpec(16));
  PlacementSnapshot afterMgl;
  {
    SegmentMap segments(reference);
    PlacementState state(reference);
    PipelineConfig config = guardedConfig();
    config.runMaxDisp = false;
    config.runFixedRowOrder = false;
    legalize(state, segments, config);
    afterMgl = state.snapshot();
  }

  Design design = generate(guardSpec(16));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = guardedConfig();
  config.runFixedRowOrder = false;
  config.guard.maxAttempts = 2;
  config.guard.faults.add(PipelineStage::MaxDisp, FaultKind::StageThrow, 0);
  config.guard.faults.add(PipelineStage::MaxDisp, FaultKind::StageThrow, 1);
  const auto stats = legalize(state, segments, config);

  EXPECT_EQ(stats.guard.at(PipelineStage::MaxDisp).status,
            StageStatus::SkippedAfterRollback);
  EXPECT_TRUE(stats.guard.degraded);
  EXPECT_FALSE(stats.guard.failed);
  EXPECT_TRUE(state.snapshot() == afterMgl);
}

// MGL is mandatory: when it fails every attempt, the guard falls back to
// the Tetris baseline instead of skipping, and the result is still free of
// hard violations.
TEST(Guard, MglFallsBackToTetris) {
  Design design = generate(guardSpec(17));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = guardedConfig();
  config.guard.maxAttempts = 2;
  config.guard.faults.add(PipelineStage::Mgl, FaultKind::StageThrow, 0);
  config.guard.faults.add(PipelineStage::Mgl, FaultKind::StageThrow, 1);
  const auto stats = legalize(state, segments, config);

  const auto& rec = stats.guard.at(PipelineStage::Mgl);
  EXPECT_EQ(rec.status, StageStatus::FallbackApplied);
  EXPECT_NE(rec.detail.find("tetris fallback"), std::string::npos)
      << rec.detail;
  EXPECT_TRUE(stats.guard.degraded);
  EXPECT_FALSE(stats.guard.failed);
  const auto legality = checkLegality(design, segments);
  EXPECT_EQ(legality.overlaps, 0);
  EXPECT_EQ(legality.outOfCore, 0);
  EXPECT_EQ(legality.parityViolations, 0);
  EXPECT_EQ(legality.fenceViolations, 0);
}

// With fallback disallowed too, the run ends Failed with the GP input
// restored untouched — and later stages are never reached.
TEST(Guard, MglFailureWithoutFallbackRestoresInput) {
  Design design = generate(guardSpec(18));
  const Design original = design;
  SegmentMap segments(design);
  PlacementState state(design);
  const PlacementSnapshot before = state.snapshot();
  PipelineConfig config = guardedConfig();
  config.guard.maxAttempts = 1;
  config.guard.allowFallback = false;
  config.guard.faults.add(PipelineStage::Mgl, FaultKind::StageThrow, 0);
  const auto stats = legalize(state, segments, config);

  EXPECT_EQ(stats.guard.at(PipelineStage::Mgl).status, StageStatus::Failed);
  EXPECT_TRUE(stats.guard.failed);
  EXPECT_EQ(stats.guard.at(PipelineStage::MaxDisp).status,
            StageStatus::NotRun);
  EXPECT_TRUE(state.snapshot() == before);
  EXPECT_EQ(stats.guard.infeasibleCells,
            countUnplacedMovable(original));
}

// Acceptance criterion of the subsystem: with any single injected fault the
// pipeline never aborts and always ends in a consistent state.
TEST(Guard, SeededFaultsNeverAbort) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Design design = generate(guardSpec(19));
    SegmentMap segments(design);
    PlacementState state(design);
    PipelineConfig config = guardedConfig();
    config.runRipup = true;
    config.runWirelengthRecovery = true;
    config.guard.faults = FaultPlan::fromSeed(seed);
    const auto stats = legalize(state, segments, config);
    const auto legality = checkLegality(design, segments);
    EXPECT_EQ(legality.overlaps, 0) << "seed " << seed;
    EXPECT_EQ(legality.outOfCore, 0) << "seed " << seed;
    EXPECT_EQ(stats.guard.infeasibleCells, legality.unplacedCells)
        << "seed " << seed;
  }
}

// Satellite: even unguarded runs must fill the per-stage records so a
// report can tell "ran fast" from "did not run".
TEST(Guard, UnguardedRunRecordsStageOutcomes) {
  Design design = generate(guardSpec(20));
  SegmentMap segments(design);
  PlacementState state(design);
  PipelineConfig config = PipelineConfig::contest();
  config.runFixedRowOrder = false;
  ASSERT_FALSE(config.guard.enabled);
  const auto stats = legalize(state, segments, config);
  EXPECT_EQ(stats.guard.at(PipelineStage::Mgl).status, StageStatus::Ok);
  EXPECT_EQ(stats.guard.at(PipelineStage::Mgl).attempts, 1);
  EXPECT_EQ(stats.guard.at(PipelineStage::MaxDisp).status, StageStatus::Ok);
  EXPECT_EQ(stats.guard.at(PipelineStage::FixedRowOrder).status,
            StageStatus::Disabled);
  EXPECT_EQ(stats.guard.at(PipelineStage::FixedRowOrder).attempts, 0);
  EXPECT_EQ(stats.guard.infeasibleCells, 0);
}

// Guard off, a stage exception leaves legalize() as thrown: one attempt,
// no rollback to the GP input, no retry and no Tetris fallback.
TEST(Guard, UnguardedStageExceptionPropagates) {
  Design design = generate(guardSpec(21));
  SegmentMap segments(design);
  PlacementState state(design);
  const int unplacedBefore = countUnplacedMovable(design);
  PipelineConfig config = PipelineConfig::contest();
  ASSERT_FALSE(config.guard.enabled);
  constexpr int kFaultTask = 10;
  int calls = 0;
  config.mgl.checkpoint = [&calls] {
    if (calls++ == kFaultTask) {
      throw MclgError("task fault", ErrorKind::Injected);
    }
  };
  EXPECT_THROW(legalize(state, segments, config), MclgError);
  EXPECT_EQ(calls, kFaultTask + 1);  // cells 0..10, once each
  const int unplacedAfter = countUnplacedMovable(design);
  EXPECT_LT(unplacedAfter, unplacedBefore);  // no rollback
  EXPECT_GT(unplacedAfter, 0);               // no fallback completed it
}

TEST(Guard, SummaryTableListsEveryStage) {
  GuardReport report;
  report.at(PipelineStage::Mgl).status = StageStatus::Ok;
  report.at(PipelineStage::Mgl).attempts = 1;
  const std::string summary = report.summary();
  for (const PipelineStage stage :
       {PipelineStage::Mgl, PipelineStage::MaxDisp,
        PipelineStage::FixedRowOrder, PipelineStage::Ripup,
        PipelineStage::Recovery}) {
    EXPECT_NE(summary.find(stageName(stage)), std::string::npos);
  }
  EXPECT_NE(summary.find("not-run"), std::string::npos);
}

// The one run-outcome rule, row by row, with the batch worker's and the
// serve session's status for each row.
TEST(Guard, RunOutcomeRuleMapsToEveryFrontEnd) {
  GuardReport clean;
  GuardReport failed;
  failed.failed = true;
  failed.degraded = true;
  failed.infeasibleCells = 3;
  GuardReport infeasible;
  infeasible.infeasibleCells = 2;
  infeasible.degraded = true;
  GuardReport degraded;
  degraded.degraded = true;

  struct Row {
    const char* name;
    GuardExitCode outcome;
    WorkerStatus worker;
    ServeStatus serve;
  };
  const Row rows[] = {
      {"guard failed", runOutcome(failed, true), WorkerStatus::Exception,
       ServeStatus::Internal},
      {"infeasible cells", runOutcome(infeasible, true),
       WorkerStatus::Infeasible, ServeStatus::Infeasible},
      {"not legal", runOutcome(clean, false, true), WorkerStatus::Infeasible,
       ServeStatus::Infeasible},
      {"guard degraded", runOutcome(degraded, true),
       WorkerStatus::GuardDegraded, ServeStatus::Degraded},
      {"ECO fell back", runOutcome(clean, true, true),
       WorkerStatus::GuardDegraded, ServeStatus::Degraded},
      {"clean", runOutcome(clean, true), WorkerStatus::Ok, ServeStatus::Ok},
  };
  const GuardExitCode want[] = {
      GuardExitCode::Internal,   GuardExitCode::Infeasible,
      GuardExitCode::Infeasible, GuardExitCode::Degraded,
      GuardExitCode::Degraded,   GuardExitCode::Legal};
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    EXPECT_EQ(row.outcome, want[i]) << row.name;
    const int code = static_cast<int>(row.outcome);
    EXPECT_EQ(workerStatusFromExit(code), row.worker) << row.name;
    EXPECT_EQ(serveStatusFromExit(code), row.serve) << row.name;
    EXPECT_EQ(runOutcomeError(row.outcome, 4).empty(),
              row.outcome == GuardExitCode::Legal ||
                  row.outcome == GuardExitCode::Degraded)
        << row.name;
  }
  EXPECT_EQ(runOutcomeError(GuardExitCode::Infeasible, 4),
            "4 cells unplaced or placement not legal");
}

}  // namespace
}  // namespace mclg
