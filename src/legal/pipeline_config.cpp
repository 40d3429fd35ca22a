#include "legal/pipeline_config.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

namespace mclg {
namespace {

bool parseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1" || value == "yes") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "no") {
    *out = false;
    return true;
  }
  return false;
}

bool parseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return end != value.c_str() && *end == '\0';
}

bool parseInt(const std::string& value, int* out) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
}

}  // namespace

bool applyConfigText(const std::string& text, PipelineConfig* config,
                     std::string* error) {
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineNo) + ": " + what;
    }
    return false;
  };

  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail("expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    bool okBool = false;
    double okDouble = 0.0;
    int okInt = 0;
    if (key == "preset") {
      auto preset = PipelineConfig::preset(value);
      if (!preset) return fail("unknown preset '" + value + "'");
      *config = std::move(*preset);
    } else if (key == "mgl.window.w" && parseInt(value, &okInt)) {
      config->mgl.window.initialW = okInt;
    } else if (key == "mgl.window.h" && parseInt(value, &okInt)) {
      config->mgl.window.initialH = okInt;
    } else if (key == "mgl.window.expand" && parseDouble(value, &okDouble)) {
      config->mgl.window.expandFactor = okDouble;
    } else if (key == "mgl.window.max_expansions" && parseInt(value, &okInt)) {
      config->mgl.window.maxExpansions = okInt;
    } else if (key == "mgl.seeds_per_row" && parseInt(value, &okInt)) {
      config->mgl.insertion.maxSeedsPerRow = okInt;
    } else if (key == "mgl.commit_attempts" && parseInt(value, &okInt)) {
      config->mgl.insertion.maxCommitAttempts = okInt;
    } else if (key == "mgl.io_penalty" && parseDouble(value, &okDouble)) {
      config->mgl.insertion.ioPenalty = okDouble;
    } else if (key == "mgl.routability" && parseBool(value, &okBool)) {
      config->mgl.insertion.routability = okBool;
    } else if (key == "mgl.gp_objective" && parseBool(value, &okBool)) {
      config->mgl.insertion.gpObjective = okBool;
    } else if (key == "mgl.contest_weights" && parseBool(value, &okBool)) {
      config->mgl.insertion.contestWeights = okBool;
    } else if (key == "mgl.edge_spacing" && parseBool(value, &okBool)) {
      config->mgl.insertion.respectEdgeSpacing = okBool;
    } else if (key == "maxdisp.run" && parseBool(value, &okBool)) {
      config->runMaxDisp = okBool;
    } else if (key == "maxdisp.delta0" && parseDouble(value, &okDouble)) {
      config->maxDisp.delta0 = okDouble;
    } else if (key == "maxdisp.max_group" && parseInt(value, &okInt)) {
      config->maxDisp.maxGroupSize = okInt;
    } else if (key == "maxdisp.candidates" && parseInt(value, &okInt)) {
      config->maxDisp.candidatesPerCell = okInt;
    } else if (key == "maxdisp.dense_threshold" && parseInt(value, &okInt)) {
      config->maxDisp.denseSolverThreshold = okInt;
    } else if (key == "maxdisp.group_by_footprint" &&
               parseBool(value, &okBool)) {
      config->maxDisp.groupByFootprint = okBool;
    } else if (key == "mcf.run" && parseBool(value, &okBool)) {
      config->runFixedRowOrder = okBool;
    } else if (key == "mcf.n0" && parseDouble(value, &okDouble)) {
      config->fixedRowOrder.maxDispWeight = okDouble;
    } else if (key == "mcf.routability" && parseBool(value, &okBool)) {
      config->fixedRowOrder.routability = okBool;
    } else if (key == "mcf.contest_weights" && parseBool(value, &okBool)) {
      config->fixedRowOrder.contestWeights = okBool;
    } else if (key == "mcf.edge_spacing" && parseBool(value, &okBool)) {
      config->fixedRowOrder.respectEdgeSpacing = okBool;
    } else if (key == "mcf.mrdp_network" && parseBool(value, &okBool)) {
      config->fixedRowOrder.mrdpStyleNetwork = okBool;
    } else if (key == "ripup.run" && parseBool(value, &okBool)) {
      config->runRipup = okBool;
    } else if (key == "ripup.threshold" && parseDouble(value, &okDouble)) {
      config->ripup.displacementThreshold = okDouble;
    } else if (key == "ripup.passes" && parseInt(value, &okInt)) {
      config->ripup.passes = okInt;
    } else if (key == "recovery.run" && parseBool(value, &okBool)) {
      config->runWirelengthRecovery = okBool;
    } else if (key == "recovery.budget" && parseDouble(value, &okDouble)) {
      config->recovery.maxAddedDisplacement = okDouble;
    } else if (key == "recovery.passes" && parseInt(value, &okInt)) {
      config->recovery.passes = okInt;
    } else if (key == "guard.run" && parseBool(value, &okBool)) {
      config->guard.enabled = okBool;
    } else if (key == "guard.score_tolerance" && parseDouble(value, &okDouble)) {
      config->guard.scoreTolerance = okDouble;
    } else if (key == "guard.stage_budget" && parseDouble(value, &okDouble)) {
      config->guard.stageBudgetSeconds = okDouble;
    } else if (key == "guard.max_attempts" && parseInt(value, &okInt)) {
      config->guard.maxAttempts = okInt;
    } else if (key == "guard.allow_fallback" && parseBool(value, &okBool)) {
      config->guard.allowFallback = okBool;
    } else if (key == "guard.fault_seed" && parseInt(value, &okInt)) {
      // Deterministic fault fuzzing hook: arm one pseudo-random fault.
      config->guard.faults =
          FaultPlan::fromSeed(static_cast<std::uint64_t>(okInt));
    } else {
      return fail("unknown key or bad value: '" + key + "' = '" + value +
                  "'");
    }
  }
  return true;
}

std::string configToText(const PipelineConfig& config) {
  std::ostringstream out;
  auto b = [](bool v) { return v ? "true" : "false"; };
  out << "mgl.window.w = " << config.mgl.window.initialW << "\n";
  out << "mgl.window.h = " << config.mgl.window.initialH << "\n";
  out << "mgl.window.expand = " << config.mgl.window.expandFactor << "\n";
  out << "mgl.window.max_expansions = " << config.mgl.window.maxExpansions
      << "\n";
  out << "mgl.seeds_per_row = " << config.mgl.insertion.maxSeedsPerRow << "\n";
  out << "mgl.commit_attempts = " << config.mgl.insertion.maxCommitAttempts
      << "\n";
  out << "mgl.io_penalty = " << config.mgl.insertion.ioPenalty << "\n";
  out << "mgl.routability = " << b(config.mgl.insertion.routability) << "\n";
  out << "mgl.gp_objective = " << b(config.mgl.insertion.gpObjective) << "\n";
  out << "mgl.contest_weights = " << b(config.mgl.insertion.contestWeights)
      << "\n";
  out << "mgl.edge_spacing = " << b(config.mgl.insertion.respectEdgeSpacing)
      << "\n";
  out << "maxdisp.run = " << b(config.runMaxDisp) << "\n";
  out << "maxdisp.delta0 = " << config.maxDisp.delta0 << "\n";
  out << "maxdisp.max_group = " << config.maxDisp.maxGroupSize << "\n";
  out << "maxdisp.candidates = " << config.maxDisp.candidatesPerCell << "\n";
  out << "maxdisp.dense_threshold = " << config.maxDisp.denseSolverThreshold
      << "\n";
  out << "maxdisp.group_by_footprint = " << b(config.maxDisp.groupByFootprint)
      << "\n";
  out << "mcf.run = " << b(config.runFixedRowOrder) << "\n";
  out << "mcf.n0 = " << config.fixedRowOrder.maxDispWeight << "\n";
  out << "mcf.routability = " << b(config.fixedRowOrder.routability) << "\n";
  out << "mcf.contest_weights = " << b(config.fixedRowOrder.contestWeights)
      << "\n";
  out << "mcf.edge_spacing = " << b(config.fixedRowOrder.respectEdgeSpacing)
      << "\n";
  out << "mcf.mrdp_network = " << b(config.fixedRowOrder.mrdpStyleNetwork)
      << "\n";
  out << "ripup.run = " << b(config.runRipup) << "\n";
  out << "ripup.threshold = " << config.ripup.displacementThreshold << "\n";
  out << "ripup.passes = " << config.ripup.passes << "\n";
  out << "recovery.run = " << b(config.runWirelengthRecovery) << "\n";
  out << "recovery.budget = " << config.recovery.maxAddedDisplacement << "\n";
  out << "recovery.passes = " << config.recovery.passes << "\n";
  out << "guard.run = " << b(config.guard.enabled) << "\n";
  out << "guard.score_tolerance = " << config.guard.scoreTolerance << "\n";
  out << "guard.stage_budget = " << config.guard.stageBudgetSeconds << "\n";
  out << "guard.max_attempts = " << config.guard.maxAttempts << "\n";
  out << "guard.allow_fallback = " << b(config.guard.allowFallback) << "\n";
  return out.str();
}

}  // namespace mclg
