// Textual configuration for the pipeline: flat `key = value` lines
// (# comments), covering every tunable of every stage. Used by the CLI's
// --config and by tests that sweep configurations from data. Thread counts
// are not tunables here: the CLI's --threads sets them (setThreads).
//
//   preset = contest            # or totaldisp (applied first)
//   mgl.window.w = 24
//   mgl.window.h = 8
//   mgl.window.expand = 1.7
//   mgl.seeds_per_row = 32
//   mgl.commit_attempts = 256
//   mgl.io_penalty = 2.0
//   mgl.routability = true
//   maxdisp.run = true
//   maxdisp.delta0 = 10
//   maxdisp.group_by_footprint = false
//   maxdisp.dense_threshold = 96
//   mcf.run = true
//   mcf.n0 = 4
//   mcf.routability = true
//   guard.run = false            # transactional stage guard (legal/guard/)
//   guard.score_tolerance = 0.05
//   guard.stage_budget = 0       # seconds per stage attempt; 0 = unlimited
//   guard.max_attempts = 2       # 1 = no retry; failed optional stages skip
//   guard.allow_fallback = true  # Tetris baseline if MGL fails every attempt
//   guard.fault_seed = 42        # arm one deterministic injected fault
#pragma once

#include <string>

#include "legal/pipeline.hpp"

namespace mclg {

/// Apply `key = value` lines to config. Unknown keys or unparsable values
/// fail with *error set; config is modified in place (keys seen before the
/// failing line stay applied).
bool applyConfigText(const std::string& text, PipelineConfig* config,
                     std::string* error = nullptr);

/// Render the full configuration in the same syntax (round-trips through
/// applyConfigText).
std::string configToText(const PipelineConfig& config);

}  // namespace mclg
