// One resident tenant of the legalization service: a design loaded once,
// kept legal in memory, and re-legalized incrementally per EcoDelta
// request against its committed placement.
//
// The session is the service's transaction boundary, and it keeps
// everything a request needs resident from load() on: the design, one
// SegmentMap (serve ops cannot change fixed cells, fences, rows or rails),
// one PlacementState bound to the design, and the score terms
// (ScoreTerms). An EcoDelta edits them in place — ops, then ecoRelegalize()
// seeded from the session's undo log (EditLog, seedFromLog), then an O(Δ)
// score refresh — while the log records the first-touch value of every
// cell it changes. Only an Ok/Degraded outcome is kept: a malformed op, an
// infeasible result, an exhausted request budget (ServeStatus::Rejected)
// or an escaped exception replays the request's log backwards and leaves
// the tenant exactly as it was. Commit clears the commit-level log;
// Rollback replays it, restoring the committed placement together with its
// score, run report and hash. No request copies or rescans the whole
// design, so a request costs what its delta costs. This mirrors the
// guard's stage transactions one level up: the guard rolls back stages
// inside a run, the session rolls back whole requests.
//
// Determinism / CLI parity: load() builds the same PipelineConfig the CLI
// does (preset + guard enabled + setThreads), applyDelta() uses the CLI's
// --eco-from defaults, and seedFromLog() leaves the same seed the CLI's
// snapshot diff would, so a request stream's per-request placements are
// byte-identical to running `mclg_cli legalize --eco-from` once per
// request on the equivalent inputs, and every reported score equals a
// from-scratch evaluateScore() bit for bit (both asserted in
// tests/test_serve.cpp).
//
// Thread safety: each public method locks the session, serializing
// requests per tenant; distinct tenants run concurrently on the executor
// (flow/serve/serve_server.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "db/design.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/score_terms.hpp"
#include "flow/serve/serve_protocol.hpp"
#include "legal/eco/edit_log.hpp"
#include "legal/mgl/insertion.hpp"
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

  /// What a placement exposes to clients: its score, run report and hash.
  struct Exposed {
    ScoreBreakdown score;
    std::string report;  ///< schema-v8 run report of the legalize/ECO
    std::uint64_t hash = 0;
  };

  /// Validate + apply one op to the resident design (logged). Returns
  /// false (with *error) on an unknown cell/type/fence, an out-of-core GP
  /// target, or a resize that drops a pin a net references.
  bool applyOp(const EcoOp& op, std::string* error);
  /// Undo the open request and bring the score terms back in step.
  void undoRequest();

  std::string tenant_;
  std::string preset_;
  int threads_ = 1;         // the LoadDesign request's thread budget
  PipelineConfig config_;   // CLI-equivalent: preset, guard on, threads set
  Design current_;          // legal between requests; edited in place
  std::optional<SegmentMap> segments_;
  std::optional<PlacementState> state_;  // bound to current_
  std::optional<EditLog> log_;           // state_'s listener
  std::optional<ScoreTerms> terms_;
  SearchArena searchArena_;  // shared by each request's MGL searchers
  Exposed exposed_;    // the current placement
  Exposed committed_;  // the last committed placement
  std::mutex mutex_;
};

}  // namespace mclg
