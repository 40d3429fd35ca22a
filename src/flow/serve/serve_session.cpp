#include "flow/serve/serve_session.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/report.hpp"
#include "eval/score.hpp"
#include "legal/eco/eco_driver.hpp"
#include "obs/run_report.hpp"
#include "parsers/simple_format.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mclg {

namespace {

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

  // The CLI's config construction (tools/mclg_cli.cpp cmdLegalize), minus
  // the flag overrides: preset, guard on, thread budget. Byte-identity of
  // serve responses with solo CLI runs depends on this staying in sync.
  auto pipeline = PipelineConfig::preset(config.preset);
  if (!pipeline) {
    response->status = ServeStatus::Malformed;
    response->error = "unknown preset '" + config.preset + "'";
    return nullptr;
  }
  pipeline->guard.enabled = true;

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
  session->config_ = std::move(*pipeline);
  session->config_.setThreads(session->threads_);
  session->config_.executor = config.executor;
  session->current_ = std::move(*design);

  PipelineStats stats;
  ScoreBreakdown score;
  try {
    session->segments_.emplace(session->current_);
    session->state_.emplace(session->current_);
    // The load deadline only bounds this run — config_ stays deadline-free
    // for the ECO requests that follow.
    PipelineConfig runConfig = session->config_;
    runConfig.guard.requestDeadline = config.requestDeadline;
    stats = legalize(*session->state_, *session->segments_, runConfig);
    session->terms_.emplace(*session->state_, *session->segments_);
    score = session->terms_->evaluate();
  } catch (const std::exception& e) {
    response->status = ServeStatus::Internal;
    response->error = e.what();
    return nullptr;
  }

  const GuardExitCode outcome =
      runOutcome(stats.guard, score.legality.legal());
  response->status = serveStatusFromExit(static_cast<int>(outcome));
  if (!serveStatusOk(response->status)) {
    response->error = runOutcomeError(
        outcome,
        std::max(stats.guard.infeasibleCells, score.legality.unplacedCells));
    return nullptr;
  }

  // From here on every edit goes through the undo log and the resident
  // score terms.
  session->log_.emplace(session->current_);
  session->state_->setListener(&*session->log_);
  session->exposed_.score = score;
  session->exposed_.report =
      obs::renderRunReport(provenanceFor(session->current_, session->preset_,
                                         session->threads_, session->config_),
                           stats, &score, /*includeMetrics=*/false);
  session->exposed_.hash = session->terms_->hash();
  session->committed_ = session->exposed_;

  response->hash = session->exposed_.hash;
  response->score = score.score;
  response->cells = session->current_.numCells();
  response->seconds = timer.seconds();
  response->body = session->exposed_.report;
  return session;
}

bool ServeSession::applyOp(const EcoOp& op, std::string* error) {
  Design& design = current_;
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
      log_->record(op.cell);
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
      for (const NetId n : terms_->netsOf(op.cell)) {
        for (const Net::Conn& conn : design.nets[n].conns) {
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
      // The occupancy index knows the cell by its old footprint: take it
      // out before the type changes (seedFromLog re-places it if the
      // resize leaves it clean).
      log_->record(op.cell);
      if (cell.placed) state_->remove(op.cell);
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

void ServeSession::undoRequest() {
  const std::vector<CellId> changed = log_->requestChanges();
  log_->undoRequest(*state_);
  terms_->refresh(changed);
}

ServeResponse ServeSession::applyDelta(const EcoDeltaRequest& request,
                                       const Deadline& requestDeadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeResponse response;
  response.id = request.id;
  response.tenant = tenant_;
  Timer timer;
  const auto fail = [&](ServeStatus status, std::string error) {
    undoRequest();
    response.status = status;
    response.error = std::move(error);
    response.seconds = timer.seconds();
    return response;
  };

  // Transaction: ops + relegalization edit the resident design in place
  // while the undo log records every first touch; anything but an
  // Ok/Degraded outcome undoes the request.
  for (const EcoOp& op : request.ops) {
    std::string error;
    if (!applyOp(op, &error)) return fail(ServeStatus::Malformed, error);
  }
  // The edited design must satisfy every invariant the file parser
  // enforces (a design only reachable through serve must not behave
  // differently from one reachable through a file). applyOp checked each
  // op; what Design::check would still catch is a placed cell resized past
  // the core edge at the position it held when the request began.
  for (const EcoOp& op : request.ops) {
    if (op.kind != EcoOp::Kind::Resize ||
        op.cell >= log_->requestStartCells()) {
      continue;
    }
    const Cell& start = log_->atRequestStart(op.cell);
    if (start.placed &&
        (start.x + current_.widthOf(op.cell) > current_.numSitesX ||
         start.y + current_.heightOf(op.cell) > current_.numRows)) {
      return fail(ServeStatus::Malformed, "placed movable cell outside core");
    }
  }
  // Per-height cell counts and the other cached statistics change only
  // when a cell changes type or joins the design.
  if (std::any_of(request.ops.begin(), request.ops.end(),
                  [](const EcoOp& op) {
                    return op.kind != EcoOp::Kind::Move;
                  })) {
    current_.invalidateCaches();
  }

  EcoStats eco;
  ScoreBreakdown score;
  try {
    EcoConfig ecoConfig;
    ecoConfig.pipeline = config_;
    ecoConfig.pipeline.mgl.insertion.arena = &searchArena_;
    ecoConfig.requestDeadline = requestDeadline;
    eco = ecoRelegalize(*state_, *segments_, seedFromLog(*state_, *log_),
                        ecoConfig);
    const std::vector<CellId> changed = log_->requestChanges();
    terms_->refresh(changed);
    score = terms_->evaluate(&changed, eco.auditedLegal);
  } catch (const MclgError& e) {
    return fail(e.kind() == ErrorKind::Timeout ? ServeStatus::Rejected
                                               : ServeStatus::Internal,
                e.what());
  } catch (const std::exception& e) {
    return fail(ServeStatus::Internal, e.what());
  }

  const GuardExitCode outcome =
      runOutcome(GuardReport(), score.legality.legal(), eco.usedFullRun);
  const ServeStatus status = serveStatusFromExit(static_cast<int>(outcome));
  if (!serveStatusOk(status)) {
    return fail(status,
                runOutcomeError(outcome, score.legality.unplacedCells));
  }

  // Adopt: the edited design is the (uncommitted) current placement.
  log_->acceptRequest();
  response.status = status;
  exposed_.score = score;
  exposed_.report =
      obs::renderRunReport(provenanceFor(current_, preset_, threads_, config_),
                           ecoPipelineStats(eco), &score,
                           /*includeMetrics=*/false, &eco);
  exposed_.hash = terms_->hash();
  response.hash = exposed_.hash;
  response.score = score.score;
  response.cells = current_.numCells();
  response.seconds = timer.seconds();
  response.body = exposed_.report;
  return response;
}

ServeResponse ServeSession::commit(const TenantRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeResponse response;
  response.id = request.id;
  response.tenant = tenant_;
  Timer timer;
  log_->commit();
  committed_ = exposed_;
  response.status = ServeStatus::Ok;
  response.hash = exposed_.hash;
  response.score = exposed_.score.score;
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
  const std::vector<CellId> changed = log_->commitChanges();
  log_->undoCommit(*state_);
  terms_->refresh(changed);
  exposed_ = committed_;
  response.status = ServeStatus::Ok;
  response.hash = exposed_.hash;
  response.score = exposed_.score.score;
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
  response.hash = exposed_.hash;
  response.score = exposed_.score.score;
  response.cells = current_.numCells();
  if (request.key == "report") {
    response.status = ServeStatus::Ok;
    response.body = exposed_.report;
  } else if (request.key == "design") {
    response.status = ServeStatus::Ok;
    response.body = writeSimpleFormat(current_);
  } else if (request.key == "score") {
    response.status = ServeStatus::Ok;
    response.body = summarize(current_, exposed_.score) + "\n";
  } else {
    response.status = ServeStatus::Malformed;
    response.error = "unknown query key " + request.key;
  }
  response.seconds = timer.seconds();
  return response;
}

}  // namespace mclg
