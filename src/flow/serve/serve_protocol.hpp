// Payload codecs for the legalization-service request/response frames.
//
// The daemon (tools/mclg_serve, flow/serve/serve_server.hpp) speaks the
// same length-prefixed frame envelope as the batch supervisor
// (flow/worker_protocol.hpp): magic u32 LE + type u32 LE + length u32 LE +
// payload. This header defines what goes *inside* the serving frames
// (FrameType::LoadDesign .. FrameType::Response): a line-oriented
// `key=value` header, optionally followed by one `---` separator line and
// a free-form body (a .mclg design text, ECO op lines, or a run-report
// JSON document). The same forward-compatibility convention as the worker
// payloads applies — unknown keys are skipped, so older daemons read newer
// clients and vice versa — and every payload leads with
// `proto=<kServeProtocolVersion>`; a daemon rejects a higher major version
// with ServeStatus::Malformed instead of guessing.
//
// The byte-level layout, the status vocabulary, and the compatibility
// rules are documented normatively in docs/PROTOCOL.md; docs/SERVE.md
// shows the request flow end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/worker_protocol.hpp"

namespace mclg {

/// Bump on any incompatible change to the serving payloads (renamed keys,
/// changed op grammar). Additive keys do NOT need a bump: parsers skip
/// unknown keys by construction.
inline constexpr int kServeProtocolVersion = 1;

/// Per-request outcome vocabulary carried in Response `status=`. The first
/// three mirror the run outcomes of the exit-code contract
/// (GuardExitCode / WorkerStatus); the rest are service-level outcomes
/// that have no process-exit analogue.
enum class ServeStatus {
  Ok,            ///< request applied; placement legal
  Degraded,      ///< applied, but ECO fell back to a full run / guard degraded
  Infeasible,    ///< legalization left unplaced cells; tenant rolled back
  ParseError,    ///< design text or op list failed to parse
  Malformed,     ///< structurally invalid request payload
  UnknownTenant, ///< request names a tenant that was never loaded
  TenantExists,  ///< LoadDesign for an already-registered tenant
  Busy,          ///< admission control: queue full, retry later
  Rejected,      ///< request-scoped budget exhausted; tenant rolled back
  Internal,      ///< unexpected exception; tenant rolled back
  Bye,           ///< acknowledged Shutdown; the connection (or daemon) ends
};

const char* serveStatusName(ServeStatus status);
/// -1 on an unknown name (forward compatibility is the caller's call).
int serveStatusFromName(const std::string& name);
/// Did the request leave the tenant with a usable placement? (Ok/Degraded.)
bool serveStatusOk(ServeStatus status);
/// A run's outcome (GuardExitCode, legal/guard/guard.hpp runOutcome) as
/// the status a LoadDesign or EcoDelta answers with.
ServeStatus serveStatusFromExit(int exitCode);

// ---- Requests --------------------------------------------------------------

/// LoadDesign: register `tenant` and legalize the design from scratch.
/// Body: the full .mclg design text (parsers/simple_format.hpp).
struct LoadDesignRequest {
  std::uint64_t id = 0;        ///< client-chosen, echoed in the Response
  std::string tenant;
  std::string preset = "contest";  ///< "contest" or "totaldisp"
  int threads = 1;
  std::string designText;
};

/// One ECO edit. The grammar is one op per body line:
///   move <cell> <gpX> <gpY>     re-target a movable cell's GP position
///   resize <cell> <type>        swap a cell to another library type
///   add <type> <gpX> <gpY> [fence]   append a new movable cell
/// Cells are numeric CellIds into the tenant's design; types and fences
/// are named. gpX/gpY are in site/row units (doubles).
struct EcoOp {
  enum class Kind { Move, Resize, Add };
  Kind kind = Kind::Move;
  int cell = -1;          ///< Move/Resize
  std::string type;       ///< Resize/Add
  double gpX = 0.0;       ///< Move/Add
  double gpY = 0.0;       ///< Move/Add
  std::string fence;      ///< Add (empty = no fence)
};

/// EcoDelta: apply the ops to the tenant's design and ECO-relegalize it
/// against the committed placement. On Ok/Degraded the result is the
/// tenant's current placement (still uncommitted until Commit); on any
/// failure the request is undone and the tenant is as it was.
struct EcoDeltaRequest {
  std::uint64_t id = 0;
  std::string tenant;
  std::vector<EcoOp> ops;
};

/// Commit / Rollback: make the current placement the committed one, or
/// restore the committed placement as current. Both always succeed on a
/// known tenant.
struct TenantRequest {
  std::uint64_t id = 0;
  std::string tenant;
};

/// Query: read-only introspection. `key` is one of
///   status  per-tenant service table (tenant may be empty: whole daemon)
///   score   tenant's current Eq. 10 score breakdown summary line
///   report  tenant's last run report (schema v8 JSON), verbatim
///   design  tenant's current design as .mclg text (byte-exact)
struct QueryRequest {
  std::uint64_t id = 0;
  std::string tenant;  ///< may be empty for key == "status"
  std::string key = "status";
};

/// Shutdown: scope "connection" ends this client's session; scope
/// "daemon" stops the whole server (only honored when the daemon was
/// started with --allow-remote-shutdown; otherwise answered Malformed).
struct ShutdownRequest {
  std::uint64_t id = 0;
  std::string scope = "connection";
};

// ---- Response --------------------------------------------------------------

/// One Response frame per request, in request order per connection.
/// `hash` is placementHash(design) after the request (0 when the request
/// did not touch or read a placement). The body carries the schema-v8 run
/// report for LoadDesign/EcoDelta (docs/OBSERVABILITY.md), and the queried
/// document for Query.
struct ServeResponse {
  std::uint64_t id = 0;
  ServeStatus status = ServeStatus::Internal;
  std::string tenant;
  std::string error;            ///< one-line detail when !serveStatusOk
  std::uint64_t hash = 0;
  double score = 0.0;
  double seconds = 0.0;         ///< daemon-side wall clock for the request
  int cells = 0;
  std::string body;             ///< report JSON / queried document; may be ""
};

// ---- Codecs ----------------------------------------------------------------
// serialize* renders the payload for writeFrame(); parse* returns false on
// malformed payloads (missing required keys, bad op lines, unsupported
// proto version) and leaves *out untouched.

std::string serializeLoadDesign(const LoadDesignRequest& request);
bool parseLoadDesign(const std::string& payload, LoadDesignRequest* out);

std::string serializeEcoDelta(const EcoDeltaRequest& request);
bool parseEcoDelta(const std::string& payload, EcoDeltaRequest* out);

/// Commit and Rollback share the TenantRequest payload; the frame type
/// carries the verb.
std::string serializeTenantRequest(const TenantRequest& request);
bool parseTenantRequest(const std::string& payload, TenantRequest* out);

std::string serializeQuery(const QueryRequest& request);
bool parseQuery(const std::string& payload, QueryRequest* out);

std::string serializeShutdown(const ShutdownRequest& request);
bool parseShutdown(const std::string& payload, ShutdownRequest* out);

std::string serializeServeResponse(const ServeResponse& response);
bool parseServeResponse(const std::string& payload, ServeResponse* out);

}  // namespace mclg
