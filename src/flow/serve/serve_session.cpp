#include "flow/serve/serve_session.hpp"

#include <algorithm>
#include <utility>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "eval/score.hpp"
#include "legal/eco/eco_driver.hpp"
#include "obs/run_report.hpp"
#include "parsers/simple_format.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mclg {

namespace {

/// The CLI's config construction (tools/mclg_cli.cpp cmdLegalize), minus
/// the flag overrides: preset, guard on, thread budget. Byte-identity of
/// serve responses with solo CLI runs depends on this staying in sync.
PipelineConfig cliEquivalentConfig(const std::string& preset, int threads) {
  PipelineConfig config = preset == "totaldisp"
                              ? PipelineConfig::totalDisplacement()
                              : PipelineConfig::contest();
  config.guard.enabled = true;
  config.setThreads(threads);
  return config;
}

obs::RunProvenance provenanceFor(const Design& design,
                                 const std::string& preset, int threads,
                                 const PipelineConfig& config) {
  obs::RunProvenance provenance;
  provenance.design = design.name;
  provenance.numCells = design.numCells();
  provenance.preset = preset;
  provenance.threads = threads;
  provenance.guardEnabled = config.guard.enabled;
  return provenance;
}

}  // namespace

std::unique_ptr<ServeSession> ServeSession::load(
    const LoadDesignRequest& request, const ServeSessionConfig& config,
    ServeResponse* response) {
  response->id = request.id;
  response->tenant = request.tenant;
  Timer timer;

  std::string parseError;
  auto design = readSimpleFormat(request.designText, &parseError);
  if (!design) {
    response->status = ServeStatus::ParseError;
    response->error = parseError;
    return nullptr;
  }

  auto session = std::unique_ptr<ServeSession>(new ServeSession());
  session->tenant_ = request.tenant;
  session->preset_ = config.preset;
  session->threads_ = std::max(1, config.threads);
  session->config_ = cliEquivalentConfig(config.preset, session->threads_);
  session->config_.executor = config.executor;
  session->current_ = std::move(*design);

  PipelineStats stats;
  ScoreBreakdown score;
  try {
    SegmentMap segments(session->current_);
    PlacementState state(session->current_);
    // The load deadline only bounds this run — config_ stays deadline-free
    // for the ECO requests that follow.
    PipelineConfig runConfig = session->config_;
    runConfig.guard.requestDeadline = config.requestDeadline;
    stats = legalize(state, segments, runConfig);
    score = evaluateScore(session->current_, segments);
  } catch (const std::exception& e) {
    response->status = ServeStatus::Internal;
    response->error = e.what();
    return nullptr;
  }

  // The CLI's exit-code classification (guard contract).
  if (stats.guard.failed) {
    response->status = ServeStatus::Internal;
    response->error = "guard: unrecoverable stage failure";
    return nullptr;
  }
  if (stats.guard.infeasibleCells > 0 || !score.legality.legal()) {
    response->status = ServeStatus::Infeasible;
    response->error =
        std::to_string(std::max(stats.guard.infeasibleCells,
                                score.legality.unplacedCells)) +
        " cells unplaced or placement not legal";
    return nullptr;
  }
  response->status =
      stats.guard.degraded ? ServeStatus::Degraded : ServeStatus::Ok;

  session->snapshot_ = session->current_;
  session->lastScore_ = score.score;
  session->lastReport_ =
      obs::renderRunReport(provenanceFor(session->current_, session->preset_,
                                         session->threads_, session->config_),
                           stats, &score, /*includeMetrics=*/false);

  response->hash = placementHash(session->current_);
  response->score = score.score;
  response->cells = session->current_.numCells();
  response->seconds = timer.seconds();
  response->body = session->lastReport_;
  return session;
}

bool ServeSession::applyOp(Design& design, const EcoOp& op,
                           std::string* error) {
  const auto typeByName = [&](const std::string& name) -> TypeId {
    for (TypeId t = 0; t < design.numTypes(); ++t) {
      if (design.types[t].name == name) return t;
    }
    return -1;
  };
  const auto gpInCore = [&](double gpX, double gpY) {
    return gpX >= 0.0 && gpX <= static_cast<double>(design.numSitesX - 1) &&
           gpY >= 0.0 && gpY <= static_cast<double>(design.numRows - 1);
  };
  switch (op.kind) {
    case EcoOp::Kind::Move: {
      if (op.cell < 0 || op.cell >= design.numCells()) {
        *error = "move: unknown cell " + std::to_string(op.cell);
        return false;
      }
      Cell& cell = design.cells[op.cell];
      if (cell.fixed) {
        *error = "move: cell " + std::to_string(op.cell) + " is fixed";
        return false;
      }
      if (!gpInCore(op.gpX, op.gpY)) {
        *error = "move: GP target outside the core";
        return false;
      }
      cell.gpX = op.gpX;
      cell.gpY = op.gpY;
      return true;
    }
    case EcoOp::Kind::Resize: {
      if (op.cell < 0 || op.cell >= design.numCells()) {
        *error = "resize: unknown cell " + std::to_string(op.cell);
        return false;
      }
      const TypeId type = typeByName(op.type);
      if (type < 0) {
        *error = "resize: unknown type " + op.type;
        return false;
      }
      Cell& cell = design.cells[op.cell];
      if (cell.fixed) {
        *error = "resize: cell " + std::to_string(op.cell) + " is fixed";
        return false;
      }
      // A net references this cell's pins by index into the type's pin
      // list; a type with fewer pins would leave those indexes dangling
      // (the file parser rejects exactly this as "net pin index out of
      // range", so the in-memory path must too).
      for (const Net& net : design.nets) {
        for (const Net::Conn& conn : net.conns) {
          if (conn.cell == op.cell &&
              conn.pin >=
                  static_cast<int>(design.types[type].pins.size())) {
            *error = "resize: type " + op.type + " has no pin " +
                     std::to_string(conn.pin) +
                     " (referenced by a net of cell " +
                     std::to_string(op.cell) + ")";
            return false;
          }
        }
      }
      cell.type = type;
      return true;
    }
    case EcoOp::Kind::Add: {
      const TypeId type = typeByName(op.type);
      if (type < 0) {
        *error = "add: unknown type " + op.type;
        return false;
      }
      if (!gpInCore(op.gpX, op.gpY)) {
        *error = "add: GP target outside the core";
        return false;
      }
      Cell fresh;
      fresh.type = type;
      fresh.gpX = op.gpX;
      fresh.gpY = op.gpY;
      fresh.placed = false;
      fresh.x = -1;
      fresh.y = -1;
      if (!op.fence.empty()) {
        FenceId fence = -1;
        for (FenceId f = 0; f < design.numFences(); ++f) {
          if (design.fences[f].name == op.fence) fence = f;
        }
        if (fence < 0) {
          *error = "add: unknown fence " + op.fence;
          return false;
        }
        fresh.fence = fence;
      }
      design.cells.push_back(fresh);
      return true;
    }
  }
  *error = "unknown op";
  return false;
}

ServeResponse ServeSession::applyDelta(const EcoDeltaRequest& request,
                                       const Deadline& requestDeadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeResponse response;
  response.id = request.id;
  response.tenant = tenant_;
  Timer timer;

  // Transaction: ops + relegalization run on a scratch copy; only an
  // Ok/Degraded outcome is adopted.
  Design scratch = current_;
  for (const EcoOp& op : request.ops) {
    std::string error;
    if (!applyOp(scratch, op, &error)) {
      response.status = ServeStatus::Malformed;
      response.error = error;
      response.seconds = timer.seconds();
      return response;
    }
  }
  scratch.invalidateCaches();

  // The edited design must satisfy every invariant the file parser
  // enforces (a design only reachable through serve must not behave
  // differently from one reachable through a file): re-check before the
  // expensive run so a bad delta degrades to Malformed, not to undefined
  // behavior in a stage.
  std::string invalid;
  if (!scratch.check(&invalid)) {
    response.status = ServeStatus::Malformed;
    response.error = invalid;
    response.seconds = timer.seconds();
    return response;
  }

  EcoStats eco;
  ScoreBreakdown score;
  try {
    SegmentMap segments(scratch);
    PlacementState state(scratch);
    EcoConfig ecoConfig;
    ecoConfig.pipeline = config_;
    ecoConfig.requestDeadline = requestDeadline;
    eco = ecoRelegalize(state, segments, snapshot_, ecoConfig);
    score = evaluateScore(scratch, segments);
  } catch (const MclgError& e) {
    response.status = e.kind() == ErrorKind::Timeout ? ServeStatus::Rejected
                                                     : ServeStatus::Internal;
    response.error = e.what();
    response.seconds = timer.seconds();
    return response;
  } catch (const std::exception& e) {
    response.status = ServeStatus::Internal;
    response.error = e.what();
    response.seconds = timer.seconds();
    return response;
  }

  if (!score.legality.legal()) {
    response.status = ServeStatus::Infeasible;
    response.error = std::to_string(score.legality.unplacedCells) +
                     " cells unplaced or placement not legal";
    response.seconds = timer.seconds();
    return response;
  }

  // Adopt: the scratch copy becomes the (uncommitted) current placement.
  current_ = std::move(scratch);
  response.status =
      eco.usedFullRun ? ServeStatus::Degraded : ServeStatus::Ok;
  PipelineStats stats;
  stats.mgl = eco.mgl;
  stats.secondsMgl = eco.secondsIncremental;
  lastScore_ = score.score;
  lastReport_ =
      obs::renderRunReport(provenanceFor(current_, preset_, threads_, config_),
                           stats, &score, /*includeMetrics=*/false, &eco);
  response.hash = placementHash(current_);
  response.score = score.score;
  response.cells = current_.numCells();
  response.seconds = timer.seconds();
  response.body = lastReport_;
  return response;
}

ServeResponse ServeSession::commit(const TenantRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeResponse response;
  response.id = request.id;
  response.tenant = tenant_;
  Timer timer;
  snapshot_ = current_;
  response.status = ServeStatus::Ok;
  response.hash = placementHash(current_);
  response.score = lastScore_;
  response.cells = current_.numCells();
  response.seconds = timer.seconds();
  return response;
}

ServeResponse ServeSession::rollback(const TenantRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeResponse response;
  response.id = request.id;
  response.tenant = tenant_;
  Timer timer;
  current_ = snapshot_;
  response.status = ServeStatus::Ok;
  response.hash = placementHash(current_);
  response.cells = current_.numCells();
  response.seconds = timer.seconds();
  return response;
}

ServeResponse ServeSession::query(const QueryRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeResponse response;
  response.id = request.id;
  response.tenant = tenant_;
  Timer timer;
  response.hash = placementHash(current_);
  response.score = lastScore_;
  response.cells = current_.numCells();
  if (request.key == "report") {
    response.status = ServeStatus::Ok;
    response.body = lastReport_;
  } else if (request.key == "design") {
    response.status = ServeStatus::Ok;
    response.body = writeSimpleFormat(current_);
  } else if (request.key == "score") {
    SegmentMap segments(current_);
    const ScoreBreakdown score = evaluateScore(current_, segments);
    response.status = ServeStatus::Ok;
    response.score = score.score;
    response.body = summarize(current_, score) + "\n";
  } else {
    response.status = ServeStatus::Malformed;
    response.error = "unknown query key " + request.key;
  }
  response.seconds = timer.seconds();
  return response;
}

}  // namespace mclg
