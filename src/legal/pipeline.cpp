#include "legal/pipeline.hpp"

#include "legal/guard/invariants.hpp"
#include "legal/guard/transaction.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"

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

void PipelineConfig::setThreads(int numThreads) {
  maxDisp.numThreads = numThreads;
  if (fixedRowOrder.maxDispWeight == 0.0) {
    fixedRowOrder.numThreads = numThreads;
  }
}

void PipelineConfig::propagateExecutor() {
  maxDisp.executor = executor;
  fixedRowOrder.executor = executor;
  ripup.executor = executor;
}

PipelineStats legalize(PlacementState& state, const SegmentMap& segments,
                       const PipelineConfig& userConfig) {
  PipelineConfig config = userConfig;
  config.propagateExecutor();
  if (config.guard.enabled) return legalizeGuarded(state, segments, config);

  PipelineStats stats;
  // Even unguarded, record one Ok attempt per executed stage (and Disabled
  // for toggled-off ones) so reports distinguish "ran fast" from "not run".
  auto record = [&stats](PipelineStage stage, bool ran, double seconds) {
    StageRecord& rec = stats.guard.at(stage);
    if (!ran) {
      rec.status = StageStatus::Disabled;
      return;
    }
    rec.status = StageStatus::Ok;
    rec.attempts = 1;
    rec.seconds = seconds;
  };
  {
    MCLG_TRACE_SCOPE("pipeline/mgl");
    StageClock timer;
    MglLegalizer mgl(state, segments, config.mgl);
    stats.mgl = mgl.run();
    stats.secondsMgl = timer.seconds();
    timer.record(PipelineStage::Mgl);
    record(PipelineStage::Mgl, true, stats.secondsMgl);
  }
  if (config.runMaxDisp) {
    MCLG_TRACE_SCOPE("pipeline/maxdisp");
    StageClock timer;
    stats.maxDisp = optimizeMaxDisplacement(state, config.maxDisp);
    stats.secondsMaxDisp = timer.seconds();
    timer.record(PipelineStage::MaxDisp);
  }
  record(PipelineStage::MaxDisp, config.runMaxDisp, stats.secondsMaxDisp);
  if (config.runFixedRowOrder) {
    MCLG_TRACE_SCOPE("pipeline/mcf");
    StageClock timer;
    stats.fixedRowOrder =
        optimizeFixedRowOrder(state, segments, config.fixedRowOrder);
    stats.secondsFixedRowOrder = timer.seconds();
    timer.record(PipelineStage::FixedRowOrder);
  }
  record(PipelineStage::FixedRowOrder, config.runFixedRowOrder,
         stats.secondsFixedRowOrder);
  if (config.runRipup) {
    MCLG_TRACE_SCOPE("pipeline/ripup");
    StageClock timer;
    RipupConfig ripup = config.ripup;
    ripup.insertion = config.mgl.insertion;  // same objective/constraints
    stats.ripup = ripupRefine(state, segments, ripup);
    stats.secondsRipup = timer.seconds();
    timer.record(PipelineStage::Ripup);
  }
  record(PipelineStage::Ripup, config.runRipup, stats.secondsRipup);
  if (config.runWirelengthRecovery) {
    MCLG_TRACE_SCOPE("pipeline/recovery");
    StageClock timer;
    stats.recovery = recoverWirelength(state, segments, config.recovery);
    stats.secondsRecovery = timer.seconds();
    timer.record(PipelineStage::Recovery);
  }
  record(PipelineStage::Recovery, config.runWirelengthRecovery,
         stats.secondsRecovery);
  stats.guard.infeasibleCells = countUnplacedMovable(state.design());
  return stats;
}

}  // namespace mclg
