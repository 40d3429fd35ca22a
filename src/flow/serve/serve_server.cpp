#include "flow/serve/serve_server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <exception>
#include <utility>

#include <unistd.h>

#include "obs/obs.hpp"

namespace mclg {

namespace {

void bumpServeCounter(const char* name) {
  if (!obs::metricsEnabled()) return;
  obs::counter(name).add();
}

ServeResponse internalError(std::uint64_t id, const std::string& tenant,
                            const char* what) {
  ServeResponse response;
  response.id = id;
  response.tenant = tenant;
  response.status = ServeStatus::Internal;
  response.error = what;
  return response;
}

}  // namespace

ServeServer::ServeServer(ServeConfig config) : config_(std::move(config)) {
  config_.maxInFlight = std::max(1, config_.maxInFlight);
  config_.queueDepth = std::max(0, config_.queueDepth);
  config_.maxThreadsPerRequest = std::max(1, config_.maxThreadsPerRequest);
}

// ---- Admission -------------------------------------------------------------

ServeServer::Admission ServeServer::admit() {
  std::unique_lock<std::mutex> lock(admissionMutex_);
  if (executing_ >= config_.maxInFlight && waiting_ >= config_.queueDepth) {
    return {};
  }
  Admission admission;
  admission.admitted = true;
  // The budget clock starts here: queue wait counts against the request,
  // so a request that waited out its budget rejects fast instead of
  // starting doomed pipeline work.
  admission.deadline = Deadline::after(config_.requestBudgetSeconds);
  ++waiting_;
  admissionCv_.wait(lock, [&] { return executing_ < config_.maxInFlight; });
  --waiting_;
  ++executing_;
  if (obs::metricsEnabled()) {
    obs::gauge("serve.in_flight").set(static_cast<double>(executing_));
  }
  return admission;
}

void ServeServer::release() {
  {
    std::lock_guard<std::mutex> lock(admissionMutex_);
    --executing_;
    if (obs::metricsEnabled()) {
      obs::gauge("serve.in_flight").set(static_cast<double>(executing_));
    }
  }
  admissionCv_.notify_one();
}

ServeResponse ServeServer::runAdmitted(std::uint64_t id,
                                       const std::string& tenant,
                                       FunctionRef<ServeResponse()> work) {
  ServeResponse response;
  try {
    if (config_.testRequestHook) config_.testRequestHook();
    response = work();
  } catch (const std::exception& e) {
    response = internalError(id, tenant, e.what());
  } catch (...) {
    response = internalError(id, tenant, "non-standard exception");
  }
  release();
  return response;
}

// ---- Ledger / metrics ------------------------------------------------------

void ServeServer::recordOutcome(const std::string& tenant, const char* verb,
                                const ServeResponse& response) {
  {
    std::lock_guard<std::mutex> lock(ledgerMutex_);
    obs::ServeLedger::RequestOutcome outcome;
    outcome.verb = verb;
    outcome.status = serveStatusName(response.status);
    outcome.ok = serveStatusOk(response.status) ||
                 response.status == ServeStatus::Bye;
    outcome.seconds = response.seconds;
    outcome.hash = response.hash;
    outcome.score = response.score;
    outcome.cells = response.cells;
    ledger_.requestFinished(tenant, outcome, uptime_.seconds());
  }
  bumpServeCounter("serve.requests");
  switch (response.status) {
    case ServeStatus::Rejected:
      bumpServeCounter("serve.budget_rejections");
      break;
    case ServeStatus::Malformed:
    case ServeStatus::ParseError:
      bumpServeCounter("serve.malformed");
      break;
    default:
      break;
  }
}

std::string ServeServer::statusTable() const {
  std::lock_guard<std::mutex> lock(ledgerMutex_);
  return ledger_.renderStatusTable(uptime_.seconds());
}

std::string ServeServer::statusLine() const {
  std::lock_guard<std::mutex> lock(ledgerMutex_);
  return ledger_.renderStatusLine(uptime_.seconds());
}

int ServeServer::tenants() const {
  std::lock_guard<std::mutex> lock(registryMutex_);
  return static_cast<int>(sessions_.size());
}

// ---- Request handlers ------------------------------------------------------

ServeSession* ServeServer::findSession(const std::string& tenant,
                                       ServeResponse* response) {
  std::lock_guard<std::mutex> lock(registryMutex_);
  const auto it = sessions_.find(tenant);
  if (it == sessions_.end()) {
    response->tenant = tenant;
    response->status = ServeStatus::UnknownTenant;
    response->error = "tenant " + tenant + " was never loaded";
    return nullptr;
  }
  return it->second.get();
}

ServeResponse ServeServer::handleLoad(const std::string& payload) {
  ServeResponse response;
  LoadDesignRequest request;
  if (!parseLoadDesign(payload, &request)) {
    response.status = ServeStatus::Malformed;
    response.error = "malformed LoadDesign payload";
    bumpServeCounter("serve.requests");
    bumpServeCounter("serve.malformed");
    return response;
  }
  response.id = request.id;
  response.tenant = request.tenant;
  {
    std::lock_guard<std::mutex> lock(registryMutex_);
    if (sessions_.count(request.tenant) != 0 ||
        loading_.count(request.tenant) != 0) {
      response.status = ServeStatus::TenantExists;
      response.error = "tenant " + request.tenant + " already loaded";
      bumpServeCounter("serve.requests");
      return response;
    }
    loading_[request.tenant] = 1;
  }

  const Admission admission = admit();
  if (!admission.admitted) {
    std::lock_guard<std::mutex> lock(registryMutex_);
    loading_.erase(request.tenant);
    response.status = ServeStatus::Busy;
    response.error = "admission queue full";
    {
      std::lock_guard<std::mutex> ledgerLock(ledgerMutex_);
      ledger_.busyRejected(request.tenant);
    }
    bumpServeCounter("serve.busy_rejections");
    return response;
  }

  ServeSessionConfig sessionConfig;
  sessionConfig.preset = request.preset;
  sessionConfig.threads =
      std::clamp(request.threads, 1, config_.maxThreadsPerRequest);
  sessionConfig.executor = config_.executor;
  sessionConfig.requestDeadline = admission.deadline;

  std::unique_ptr<ServeSession> session;
  response = runAdmitted(request.id, request.tenant, [&] {
    ServeResponse loadResponse;
    session = ServeSession::load(request, sessionConfig, &loadResponse);
    return loadResponse;
  });

  {
    std::lock_guard<std::mutex> lock(registryMutex_);
    loading_.erase(request.tenant);
    if (session) sessions_[request.tenant] = std::move(session);
  }
  if (serveStatusOk(response.status)) {
    std::lock_guard<std::mutex> lock(ledgerMutex_);
    ledger_.tenantLoaded(request.tenant, uptime_.seconds());
    bumpServeCounter("serve.tenants_loaded");
  } else if (admission.deadline.expiredNow()) {
    // A failed load under an exhausted budget is a rejection, whatever the
    // proximate symptom (guard throw -> Internal, stages degraded into
    // infeasibility): the tenant was never registered, nothing is broken,
    // and the client should retry with a bigger budget.
    response.status = ServeStatus::Rejected;
  }
  recordOutcome(request.tenant, "load", response);
  return response;
}

ServeResponse ServeServer::handleEco(const std::string& payload) {
  ServeResponse response;
  EcoDeltaRequest request;
  if (!parseEcoDelta(payload, &request)) {
    response.status = ServeStatus::Malformed;
    response.error = "malformed EcoDelta payload";
    bumpServeCounter("serve.requests");
    bumpServeCounter("serve.malformed");
    return response;
  }
  ServeSession* session = findSession(request.tenant, &response);
  if (session == nullptr) {
    response.id = request.id;
    bumpServeCounter("serve.requests");
    return response;
  }
  const Admission admission = admit();
  if (!admission.admitted) {
    response.id = request.id;
    response.tenant = request.tenant;
    response.status = ServeStatus::Busy;
    response.error = "admission queue full";
    {
      std::lock_guard<std::mutex> lock(ledgerMutex_);
      ledger_.busyRejected(request.tenant);
    }
    bumpServeCounter("serve.busy_rejections");
    return response;
  }
  response = runAdmitted(request.id, request.tenant, [&] {
    return session->applyDelta(request, admission.deadline);
  });
  recordOutcome(request.tenant, "eco", response);
  return response;
}

ServeResponse ServeServer::handleCommitRollback(const std::string& payload,
                                                bool commit) {
  ServeResponse response;
  TenantRequest request;
  if (!parseTenantRequest(payload, &request)) {
    response.status = ServeStatus::Malformed;
    response.error = commit ? "malformed Commit payload"
                            : "malformed Rollback payload";
    bumpServeCounter("serve.requests");
    bumpServeCounter("serve.malformed");
    return response;
  }
  ServeSession* session = findSession(request.tenant, &response);
  if (session == nullptr) {
    response.id = request.id;
    bumpServeCounter("serve.requests");
    return response;
  }
  response = commit ? session->commit(request) : session->rollback(request);
  bumpServeCounter(commit ? "serve.commits" : "serve.rollbacks");
  recordOutcome(request.tenant, commit ? "commit" : "rollback", response);
  return response;
}

ServeResponse ServeServer::handleQuery(const std::string& payload) {
  ServeResponse response;
  QueryRequest request;
  if (!parseQuery(payload, &request)) {
    response.status = ServeStatus::Malformed;
    response.error = "malformed Query payload";
    bumpServeCounter("serve.requests");
    bumpServeCounter("serve.malformed");
    return response;
  }
  if (request.tenant.empty()) {
    response.id = request.id;
    if (request.key == "status") {
      response.status = ServeStatus::Ok;
      response.body = statusTable();
    } else {
      response.status = ServeStatus::Malformed;
      response.error = "query key " + request.key + " needs a tenant";
    }
    bumpServeCounter("serve.requests");
    return response;
  }
  ServeSession* session = findSession(request.tenant, &response);
  if (session == nullptr) {
    response.id = request.id;
    bumpServeCounter("serve.requests");
    return response;
  }
  if (request.key == "status") {
    // Tenant-scoped status reads the same daemon table; the interesting
    // per-tenant row is in there.
    response = ServeResponse{};
    response.id = request.id;
    response.tenant = request.tenant;
    response.status = ServeStatus::Ok;
    response.body = statusTable();
  } else {
    response = session->query(request);
  }
  recordOutcome(request.tenant, "query", response);
  return response;
}

// ---- Connection loop -------------------------------------------------------

bool ServeServer::serveConnection(int inFd, int outFd) {
  FrameReader reader;
  char buffer[1 << 16];
  bool open = true;
  bool stopDaemon = false;
  while (open && !shutdownRequested()) {
    const ssize_t n = ::read(inFd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client EOF; a pending partial frame is just dropped
    reader.feed(buffer, static_cast<std::size_t>(n));
    if (reader.corrupted()) {
      // Sticky corruption: answer once so the client knows why, then hang
      // up — nothing after a corrupt header can be trusted or resynced.
      ServeResponse response;
      response.status = ServeStatus::Malformed;
      response.error = "frame stream corrupted";
      writeFrame(outFd, FrameType::Response,
                 serializeServeResponse(response));
      bumpServeCounter("serve.corrupt_streams");
      break;
    }
    for (FrameReader::Frame& frame : reader.take()) {
      ServeResponse response;
      bool closeConnection = false;
      switch (frame.type) {
        case FrameType::LoadDesign:
          response = handleLoad(frame.payload);
          break;
        case FrameType::EcoDelta:
          response = handleEco(frame.payload);
          break;
        case FrameType::Commit:
          response = handleCommitRollback(frame.payload, /*commit=*/true);
          break;
        case FrameType::Rollback:
          response = handleCommitRollback(frame.payload, /*commit=*/false);
          break;
        case FrameType::Query:
          response = handleQuery(frame.payload);
          break;
        case FrameType::Shutdown: {
          ShutdownRequest request;
          if (!parseShutdown(frame.payload, &request)) {
            response.status = ServeStatus::Malformed;
            response.error = "malformed Shutdown payload";
            bumpServeCounter("serve.malformed");
          } else if (request.scope == "daemon" &&
                     !config_.allowRemoteShutdown) {
            response.id = request.id;
            response.status = ServeStatus::Malformed;
            response.error = "daemon shutdown not allowed on this transport";
          } else {
            response.id = request.id;
            response.status = ServeStatus::Bye;
            closeConnection = true;
            stopDaemon = request.scope == "daemon";
          }
          bumpServeCounter("serve.requests");
          break;
        }
        default:
          // Result/Report/Heartbeat/... are daemon->client or
          // worker->supervisor frames; a client sending one is confused.
          response.status = ServeStatus::Malformed;
          response.error = "unexpected frame type on a serve connection";
          bumpServeCounter("serve.requests");
          bumpServeCounter("serve.malformed");
          break;
      }
      if (!writeFrame(outFd, FrameType::Response,
                      serializeServeResponse(response))) {
        open = false;
        break;
      }
      if (closeConnection) {
        open = false;
        break;
      }
    }
  }
  if (stopDaemon) stop_.store(true, std::memory_order_release);
  return stopDaemon;
}

}  // namespace mclg
