// One resident tenant of the legalization service: a design loaded once,
// kept legal in memory, and re-legalized incrementally per EcoDelta
// request against its committed snapshot.
//
// The session is the service's transaction boundary. Every EcoDelta runs
// on a scratch copy of the current design: the ops are validated and
// applied there, ecoRelegalize() runs against the committed snapshot, and
// only an Ok/Degraded outcome is adopted as the new current placement —
// a malformed op list, an infeasible result, an exhausted request budget
// (ServeStatus::Rejected), or an escaped exception leaves the tenant
// exactly as it was. Commit promotes current -> snapshot; Rollback
// restores snapshot -> current. This mirrors the guard's stage
// transactions one level up: the guard rolls back stages inside a run,
// the session rolls back whole requests.
//
// Determinism / CLI parity: load() builds the same PipelineConfig the CLI
// does (preset + guard enabled + setThreads) and applyDelta() uses the
// CLI's --eco-from defaults, so a request stream's per-request placements
// are byte-identical to running `mclg_cli legalize --eco-from` once per
// request on the equivalent inputs (asserted in tests/test_serve.cpp).
//
// Thread safety: each public method locks the session, serializing
// requests per tenant; distinct tenants run concurrently on the executor
// (flow/serve/serve_server.hpp).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "db/design.hpp"
#include "flow/serve/serve_protocol.hpp"
#include "legal/pipeline.hpp"
#include "util/deadline.hpp"

namespace mclg {

/// Per-session knobs resolved by the server from its own config + the
/// LoadDesign request.
struct ServeSessionConfig {
  std::string preset = "contest";  ///< "contest" or "totaldisp"
  int threads = 1;
  ExecutorRef executor;  ///< lane source for any in-run parallelism
  /// Bounds the initial full legalize (guard stages) of this load only;
  /// later requests carry their own deadline into applyDelta().
  Deadline requestDeadline;
};

class ServeSession {
 public:
  /// Parse + fully legalize the design (the expensive, once-per-tenant
  /// step). Returns nullptr — with *response explaining why — unless the
  /// run ends Ok or Degraded: a tenant is only ever registered with a
  /// usable placement.
  static std::unique_ptr<ServeSession> load(const LoadDesignRequest& request,
                                            const ServeSessionConfig& config,
                                            ServeResponse* response);

  /// Apply one EcoDelta as a transaction (see file comment). The request
  /// deadline bounds the whole run; expiry yields ServeStatus::Rejected.
  ServeResponse applyDelta(const EcoDeltaRequest& request,
                           const Deadline& requestDeadline);

  ServeResponse commit(const TenantRequest& request);
  ServeResponse rollback(const TenantRequest& request);
  ServeResponse query(const QueryRequest& request);

  const std::string& tenant() const { return tenant_; }

 private:
  ServeSession() = default;

  /// Validate + apply one op to `design`. Returns false (with *error) on
  /// an unknown cell/type/fence or an out-of-core GP target.
  static bool applyOp(Design& design, const EcoOp& op, std::string* error);

  std::string tenant_;
  std::string preset_;
  int threads_ = 1;         // the LoadDesign request's thread budget
  PipelineConfig config_;   // CLI-equivalent: preset, guard on, threads set
  Design current_;          // legal; may hold uncommitted ECO results
  Design snapshot_;         // last committed legal snapshot
  std::string lastReport_;  // schema-v6 run report of the last legalize/ECO
  double lastScore_ = 0.0;
  std::mutex mutex_;
};

}  // namespace mclg
