// The legalization service core: a tenant registry plus the per-connection
// request loop, transport-agnostic over a pair of file descriptors.
//
// tools/mclg_serve owns the transport (a Unix socket listener or
// stdin/stdout) and calls serveConnection(inFd, outFd) once per client;
// everything else lives here so tests can drive a full daemon over
// socketpairs without forking. Frames use the supervisor envelope
// (flow/worker_protocol.hpp) with the serving payloads
// (flow/serve/serve_protocol.hpp); responses are written in request order
// per connection.
//
// Concurrency model: each connection is one blocking reader thread, and
// every request runs on it. Legalization work (LoadDesign, EcoDelta) runs
// between admit() and release(), so `maxInFlight` bounds how many run at
// once; a request with threads > 1 borrows its extra stage lanes from
// `ServeConfig::executor`. Per-tenant order is still total: the session
// mutex serializes requests that race on one tenant.
//
// Admission control: at most `maxInFlight` expensive requests execute at
// once and at most `queueDepth` may wait for a slot; beyond that the
// daemon answers ServeStatus::Busy immediately instead of queueing
// unboundedly. A positive `requestBudgetSeconds` starts the request's
// deadline when it is admitted (queue wait counts), bounds every guard
// stage and ECO phase through GuardConfig/EcoConfig::requestDeadline, and
// surfaces exhaustion as ServeStatus::Rejected with the tenant rolled
// back. Corrupt frame streams get one final Malformed response, then the
// connection closes (FrameReader corruption is sticky by design).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "flow/serve/serve_protocol.hpp"
#include "flow/serve/serve_session.hpp"
#include "obs/serve_ledger.hpp"
#include "util/executor/executor.hpp"
#include "util/timer.hpp"

namespace mclg {

struct ServeConfig {
  /// Expensive requests (LoadDesign/EcoDelta) executing concurrently.
  int maxInFlight = 4;
  /// Admitted-but-waiting requests beyond which the daemon answers Busy.
  int queueDepth = 16;
  /// Per-request wall-clock budget, captured at admission; <= 0 unlimited.
  double requestBudgetSeconds = 0.0;
  /// Upper bound a LoadDesign request may ask for in `threads`.
  int maxThreadsPerRequest = 4;
  /// Honor Shutdown scope=daemon (on for --stdio, flag-gated for sockets).
  bool allowRemoteShutdown = false;
  /// Lane source for in-run parallelism of requests with threads > 1.
  ExecutorRef executor;
  /// Test-only: runs at the start of every admitted expensive request, on
  /// the connection thread — lets tests hold admission slots
  /// deterministically.
  std::function<void()> testRequestHook;
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config = {});

  /// Serve one client until EOF, Shutdown, a write error, or stream
  /// corruption. Blocking; safe to call from several threads at once.
  /// Returns true when the daemon should stop (accepted daemon Shutdown).
  bool serveConnection(int inFd, int outFd);

  /// A daemon-scope Shutdown was accepted on some connection.
  bool shutdownRequested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Per-tenant service table / one-line rollup (obs/serve_ledger.hpp).
  std::string statusTable() const;
  std::string statusLine() const;

  int tenants() const;

 private:
  struct Admission {
    bool admitted = false;
    Deadline deadline;  ///< request-scoped; unlimited when no budget set
  };

  /// Block until an execution slot frees (or bounce with Busy when the
  /// wait queue is full). Every admit() needs a matching release().
  Admission admit();
  void release();

  /// Run an admitted request's `work` on the calling connection thread,
  /// then release() its slot. Any exception, std or not, answers Internal.
  ServeResponse runAdmitted(std::uint64_t id, const std::string& tenant,
                            FunctionRef<ServeResponse()> work);

  ServeResponse handleLoad(const std::string& payload);
  ServeResponse handleEco(const std::string& payload);
  ServeResponse handleCommitRollback(const std::string& payload, bool commit);
  ServeResponse handleQuery(const std::string& payload);

  /// Registry lookup; null with *response filled when unknown.
  ServeSession* findSession(const std::string& tenant,
                            ServeResponse* response);

  void recordOutcome(const std::string& tenant, const char* verb,
                     const ServeResponse& response);

  ServeConfig config_;
  Timer uptime_;

  mutable std::mutex registryMutex_;
  std::map<std::string, std::unique_ptr<ServeSession>> sessions_;
  /// Tenants with a LoadDesign in flight (blocks duplicate loads without
  /// holding the registry lock across legalization).
  std::map<std::string, int> loading_;

  mutable std::mutex admissionMutex_;
  std::condition_variable admissionCv_;
  int executing_ = 0;
  int waiting_ = 0;

  mutable std::mutex ledgerMutex_;
  obs::ServeLedger ledger_;

  std::atomic<bool> stop_{false};
};

}  // namespace mclg
