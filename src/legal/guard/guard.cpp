#include "legal/guard/guard.hpp"

#include "util/assert.hpp"
#include "util/table.hpp"

namespace mclg {

GuardExitCode runOutcome(const GuardReport& guard, bool placementLegal,
                         bool ecoFellBack) {
  if (guard.failed) return GuardExitCode::Internal;
  if (guard.infeasibleCells > 0 || !placementLegal) {
    return GuardExitCode::Infeasible;
  }
  if (guard.degraded || ecoFellBack) return GuardExitCode::Degraded;
  return GuardExitCode::Legal;
}

std::string runOutcomeError(GuardExitCode outcome, int unplacedCells) {
  switch (outcome) {
    case GuardExitCode::Internal:
      return "guard: unrecoverable stage failure";
    case GuardExitCode::Infeasible:
      return std::to_string(unplacedCells) +
             " cells unplaced or placement not legal";
    default:
      return "";
  }
}

const char* stageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::Mgl: return "mgl";
    case PipelineStage::MaxDisp: return "maxdisp";
    case PipelineStage::FixedRowOrder: return "mcf";
    case PipelineStage::Ripup: return "ripup";
    case PipelineStage::Recovery: return "recovery";
  }
  return "?";
}

const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::StageThrow: return "stage-throw";
    case FaultKind::InvariantBreak: return "invariant-break";
    case FaultKind::BudgetExhaust: return "budget-exhaust";
    case FaultKind::TaskThrow: return "task-throw";
  }
  return "?";
}

const char* stageStatusName(StageStatus status) {
  switch (status) {
    case StageStatus::NotRun: return "not-run";
    case StageStatus::Disabled: return "disabled";
    case StageStatus::Ok: return "ok";
    case StageStatus::OkAfterRetry: return "ok-after-retry";
    case StageStatus::SkippedAfterRollback: return "skipped";
    case StageStatus::FallbackApplied: return "fallback";
    case StageStatus::Failed: return "failed";
  }
  return "?";
}

void FaultPlan::add(PipelineStage stage, FaultKind kind, int attempt) {
  MCLG_ASSERT(attempt >= 0, "fault attempt must be non-negative");
  specs_.push_back({stage, kind, attempt});
}

bool FaultPlan::armed(PipelineStage stage, FaultKind kind, int attempt) const {
  for (const auto& spec : specs_) {
    if (spec.stage == stage && spec.kind == kind && spec.attempt == attempt) {
      return true;
    }
  }
  return false;
}

FaultPlan FaultPlan::fromSeed(std::uint64_t seed) {
  // SplitMix64: stable across platforms, no <random> dependency.
  auto mix = [](std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t s = seed;
  FaultPlan plan;
  const auto stage =
      static_cast<PipelineStage>(mix(s) % static_cast<std::uint64_t>(kNumPipelineStages));
  const auto kind =
      static_cast<FaultKind>(mix(s) % static_cast<std::uint64_t>(kNumFaultKinds));
  const int attempt = static_cast<int>(mix(s) % 2);
  plan.add(stage, kind, attempt);
  return plan;
}

GuardReport::GuardReport() {
  for (int i = 0; i < kNumPipelineStages; ++i) {
    stages[static_cast<std::size_t>(i)].stage = static_cast<PipelineStage>(i);
  }
}

StageRecord& GuardReport::at(PipelineStage stage) {
  return stages[static_cast<std::size_t>(stage)];
}

const StageRecord& GuardReport::at(PipelineStage stage) const {
  return stages[static_cast<std::size_t>(stage)];
}

std::string GuardReport::summary() const {
  Table table({"stage", "status", "attempts", "seconds", "score_in",
               "score_out", "detail"});
  for (const auto& rec : stages) {
    table.addRow({stageName(rec.stage), stageStatusName(rec.status),
                  Table::fmt(static_cast<long long>(rec.attempts)),
                  Table::fmt(rec.seconds, 3),
                  rec.scoreBefore < 0.0 ? "-" : Table::fmt(rec.scoreBefore, 4),
                  rec.scoreAfter < 0.0 ? "-" : Table::fmt(rec.scoreAfter, 4),
                  rec.detail.empty() ? "-" : rec.detail});
  }
  return table.toString();
}

}  // namespace mclg
