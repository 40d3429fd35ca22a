#include "flow/batch_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/checkers.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "parsers/simple_format.hpp"
#include "util/timer.hpp"

namespace mclg {

std::string manifestNameOf(const std::string& inputPath) {
  const auto slash = inputPath.find_last_of('/');
  std::string base =
      slash == std::string::npos ? inputPath : inputPath.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base.erase(dot);
  return base;
}

bool loadBatchManifest(const std::string& path,
                       std::vector<BatchManifestItem>* items,
                       std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open manifest '" + path + "'";
    return false;
  }
  char buffer[4096];
  int lineNo = 0;
  while (std::fgets(buffer, sizeof buffer, file) != nullptr) {
    ++lineNo;
    std::string line(buffer);
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Tokenize on whitespace.
    std::vector<std::string> tokens;
    std::string token;
    for (const char c : line) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        if (!token.empty()) tokens.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
    if (!token.empty()) tokens.push_back(token);
    if (tokens.empty()) continue;
    if (tokens.size() > 2) {
      if (error != nullptr) {
        *error = "manifest line " + std::to_string(lineNo) +
                 ": expected 'input [output]'";
      }
      std::fclose(file);
      return false;
    }
    BatchManifestItem item;
    item.inputPath = tokens[0];
    item.outputPath = tokens.size() > 1 ? tokens[1] : "";
    item.name = manifestNameOf(item.inputPath);
    items->push_back(std::move(item));
  }
  std::fclose(file);
  return true;
}

bool parseShardSpec(const std::string& text, ShardSpec* spec,
                    std::string* error) {
  const auto fail = [&] {
    if (error != nullptr) {
      *error = "invalid shard '" + text + "' (want i/N with 0 <= i < N)";
    }
    return false;
  };
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return fail();
  }
  const auto digits = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
    }
    return true;
  };
  const std::string indexText = text.substr(0, slash);
  const std::string countText = text.substr(slash + 1);
  if (!digits(indexText) || !digits(countText) || indexText.size() > 9 ||
      countText.size() > 9) {
    return fail();
  }
  ShardSpec parsed;
  parsed.index = static_cast<int>(std::strtol(indexText.c_str(), nullptr, 10));
  parsed.count = static_cast<int>(std::strtol(countText.c_str(), nullptr, 10));
  if (parsed.count < 1 || parsed.index >= parsed.count) return fail();
  *spec = parsed;
  return true;
}

std::vector<BatchManifestItem> shardManifest(
    const std::vector<BatchManifestItem>& items, const ShardSpec& spec) {
  std::vector<BatchManifestItem> shard;
  if (spec.count <= 1) return items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(spec.count)) ==
        spec.index) {
      shard.push_back(items[i]);
    }
  }
  return shard;
}

BatchDesignResult runBatchItem(const BatchManifestItem& item,
                               const BatchRunConfig& config) {
  BatchDesignResult result;
  result.name = item.name;
  PipelineConfig pipeline = config.pipeline;
  pipeline.setThreads(std::max(1, config.threadsPerDesign));
  try {
    ParseError parseError;
    auto design = loadDesign(item.inputPath, &parseError);
    if (!design) {
      result.status = WorkerStatus::ParseError;
      result.error = "parse error: " + parseError.str();
      return result;
    }
    result.numCells = design->numCells();
    Timer timer;
    SegmentMap segments(*design);
    PlacementState state(*design);
    result.stats = legalize(state, segments, pipeline);
    result.seconds = timer.seconds();
    result.placementHash = placementHash(*design);
    LegalityReport legality;
    if (config.evaluateScores) {
      const ScoreBreakdown score = evaluateScore(*design, segments);
      result.score = score.score;
      legality = score.legality;
    } else {
      legality = checkLegality(*design, segments);
    }
    const GuardExitCode outcome =
        runOutcome(result.stats.guard, legality.legal());
    result.status = workerStatusFromExit(static_cast<int>(outcome));
    result.ok = workerStatusOk(result.status);
    result.error = runOutcomeError(
        outcome,
        std::max(result.stats.guard.infeasibleCells, legality.unplacedCells));
    if (result.ok && !item.outputPath.empty() &&
        !saveDesign(*design, item.outputPath)) {
      result.status = WorkerStatus::IoError;
      result.ok = false;
      result.error = "cannot write '" + item.outputPath + "'";
    }
  } catch (const std::exception& e) {
    result.status = WorkerStatus::Exception;
    result.ok = false;
    result.error = e.what();
  } catch (...) {
    result.status = WorkerStatus::Exception;
    result.ok = false;
    result.error = "unknown error";
  }
  return result;
}

}  // namespace mclg
