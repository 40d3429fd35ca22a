#include "flow/serve/serve_protocol.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "legal/guard/guard.hpp"

namespace mclg {

namespace {

/// Newlines would break the line-oriented header; spaces are fine.
std::string oneLine(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

constexpr const char* kBodySeparator = "---";

/// Split a payload into `key=value` header pairs and the verbatim body
/// after the first line that is exactly `---`. Returns false on a header
/// line without '='. The body keeps its bytes untouched (design texts and
/// report JSON must round-trip exactly).
bool splitPayload(const std::string& payload,
                  std::vector<std::pair<std::string, std::string>>* headers,
                  std::string* body) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find('\n', pos);
    const bool lastLine = end == std::string::npos;
    if (lastLine) end = payload.size();
    const std::string line = payload.substr(pos, end - pos);
    pos = lastLine ? payload.size() : end + 1;
    if (line == kBodySeparator) {
      *body = payload.substr(pos);
      return true;
    }
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    headers->emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return true;
}

void putKey(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += oneLine(value);
  out += '\n';
}

void putU64(std::string& out, const char* key, std::uint64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s=%" PRIu64 "\n", key, value);
  out += buffer;
}

void putHex64(std::string& out, const char* key, std::uint64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s=%016" PRIx64 "\n", key, value);
  out += buffer;
}

void putInt(std::string& out, const char* key, long long value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s=%lld\n", key, value);
  out += buffer;
}

void putDouble(std::string& out, const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s=%.17g\n", key, value);
  out += buffer;
}

std::string protoHeader() {
  std::string out;
  putInt(out, "proto", kServeProtocolVersion);
  return out;
}

void appendBody(std::string& out, const std::string& body) {
  out += kBodySeparator;
  out += '\n';
  out += body;
}

/// Shared header-field fold: returns false only on a proto mismatch.
/// Requests without a proto key are rejected too — the version handshake
/// is mandatory so a future v2 daemon can refuse v1 payloads explicitly.
struct CommonHeaders {
  std::uint64_t id = 0;
  std::string tenant;
  bool sawProto = false;
  bool protoOk = false;

  bool fold(const std::string& key, const std::string& value) {
    if (key == "proto") {
      sawProto = true;
      protoOk =
          std::strtol(value.c_str(), nullptr, 10) == kServeProtocolVersion;
      return true;
    }
    if (key == "id") {
      id = std::strtoull(value.c_str(), nullptr, 10);
      return true;
    }
    if (key == "tenant") {
      tenant = value;
      return true;
    }
    return false;
  }
  bool versioned() const { return sawProto && protoOk; }
};

bool parseOpLine(const std::string& line, EcoOp* out) {
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) return false;
  EcoOp op;
  if (verb == "move") {
    op.kind = EcoOp::Kind::Move;
    if (!(in >> op.cell >> op.gpX >> op.gpY)) return false;
  } else if (verb == "resize") {
    op.kind = EcoOp::Kind::Resize;
    if (!(in >> op.cell >> op.type)) return false;
  } else if (verb == "add") {
    op.kind = EcoOp::Kind::Add;
    if (!(in >> op.type >> op.gpX >> op.gpY)) return false;
    in >> op.fence;  // optional
  } else {
    return false;
  }
  std::string extra;
  if (in >> extra) return false;
  if (op.kind != EcoOp::Kind::Add && op.cell < 0) return false;
  *out = op;
  return true;
}

std::string renderOpLine(const EcoOp& op) {
  char buffer[160];
  switch (op.kind) {
    case EcoOp::Kind::Move:
      std::snprintf(buffer, sizeof buffer, "move %d %.17g %.17g", op.cell,
                    op.gpX, op.gpY);
      return buffer;
    case EcoOp::Kind::Resize:
      return "resize " + std::to_string(op.cell) + " " + oneLine(op.type);
    case EcoOp::Kind::Add: {
      std::snprintf(buffer, sizeof buffer, " %.17g %.17g", op.gpX, op.gpY);
      std::string out = "add " + oneLine(op.type) + buffer;
      if (!op.fence.empty()) out += " " + oneLine(op.fence);
      return out;
    }
  }
  return "";
}

}  // namespace

const char* serveStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::Ok: return "ok";
    case ServeStatus::Degraded: return "degraded";
    case ServeStatus::Infeasible: return "infeasible";
    case ServeStatus::ParseError: return "parse-error";
    case ServeStatus::Malformed: return "malformed";
    case ServeStatus::UnknownTenant: return "unknown-tenant";
    case ServeStatus::TenantExists: return "tenant-exists";
    case ServeStatus::Busy: return "busy";
    case ServeStatus::Rejected: return "rejected";
    case ServeStatus::Internal: return "internal";
    case ServeStatus::Bye: return "bye";
  }
  return "?";
}

int serveStatusFromName(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(ServeStatus::Bye); ++i) {
    if (name == serveStatusName(static_cast<ServeStatus>(i))) return i;
  }
  return -1;
}

bool serveStatusOk(ServeStatus status) {
  return status == ServeStatus::Ok || status == ServeStatus::Degraded;
}

ServeStatus serveStatusFromExit(int exitCode) {
  switch (static_cast<GuardExitCode>(exitCode)) {
    case GuardExitCode::Legal: return ServeStatus::Ok;
    case GuardExitCode::Usage: return ServeStatus::Malformed;
    case GuardExitCode::Degraded: return ServeStatus::Degraded;
    case GuardExitCode::Infeasible: return ServeStatus::Infeasible;
    case GuardExitCode::ParseError: return ServeStatus::ParseError;
    case GuardExitCode::Internal: return ServeStatus::Internal;
  }
  return ServeStatus::Internal;
}

// ---- LoadDesign ------------------------------------------------------------

std::string serializeLoadDesign(const LoadDesignRequest& request) {
  std::string out = protoHeader();
  putU64(out, "id", request.id);
  putKey(out, "tenant", request.tenant);
  putKey(out, "preset", request.preset);
  putInt(out, "threads", request.threads);
  appendBody(out, request.designText);
  return out;
}

bool parseLoadDesign(const std::string& payload, LoadDesignRequest* out) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  if (!splitPayload(payload, &headers, &body)) return false;
  LoadDesignRequest parsed;
  CommonHeaders common;
  for (const auto& [key, value] : headers) {
    if (common.fold(key, value)) continue;
    if (key == "preset") {
      parsed.preset = value;
    } else if (key == "threads") {
      parsed.threads = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    }
    // Unknown keys skipped: older daemons read newer clients.
  }
  if (!common.versioned() || common.tenant.empty() || body.empty()) {
    return false;
  }
  parsed.id = common.id;
  parsed.tenant = common.tenant;
  parsed.designText = std::move(body);
  *out = std::move(parsed);
  return true;
}

// ---- EcoDelta --------------------------------------------------------------

std::string serializeEcoDelta(const EcoDeltaRequest& request) {
  std::string out = protoHeader();
  putU64(out, "id", request.id);
  putKey(out, "tenant", request.tenant);
  putInt(out, "ops", static_cast<long long>(request.ops.size()));
  std::string body;
  for (const EcoOp& op : request.ops) {
    body += renderOpLine(op);
    body += '\n';
  }
  appendBody(out, body);
  return out;
}

bool parseEcoDelta(const std::string& payload, EcoDeltaRequest* out) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  if (!splitPayload(payload, &headers, &body)) return false;
  EcoDeltaRequest parsed;
  long long declaredOps = -1;
  CommonHeaders common;
  for (const auto& [key, value] : headers) {
    if (common.fold(key, value)) continue;
    if (key == "ops") {
      declaredOps = std::strtoll(value.c_str(), nullptr, 10);
    }
  }
  if (!common.versioned() || common.tenant.empty()) return false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    EcoOp op;
    if (!parseOpLine(line, &op)) return false;
    parsed.ops.push_back(std::move(op));
  }
  // The declared count guards against a truncated body smuggled through an
  // intact frame (the frame length only covers the payload as sent).
  if (declaredOps >= 0 &&
      declaredOps != static_cast<long long>(parsed.ops.size())) {
    return false;
  }
  parsed.id = common.id;
  parsed.tenant = common.tenant;
  *out = std::move(parsed);
  return true;
}

// ---- Commit / Rollback -----------------------------------------------------

std::string serializeTenantRequest(const TenantRequest& request) {
  std::string out = protoHeader();
  putU64(out, "id", request.id);
  putKey(out, "tenant", request.tenant);
  return out;
}

bool parseTenantRequest(const std::string& payload, TenantRequest* out) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  if (!splitPayload(payload, &headers, &body)) return false;
  CommonHeaders common;
  for (const auto& [key, value] : headers) common.fold(key, value);
  if (!common.versioned() || common.tenant.empty()) return false;
  out->id = common.id;
  out->tenant = common.tenant;
  return true;
}

// ---- Query -----------------------------------------------------------------

std::string serializeQuery(const QueryRequest& request) {
  std::string out = protoHeader();
  putU64(out, "id", request.id);
  if (!request.tenant.empty()) putKey(out, "tenant", request.tenant);
  putKey(out, "key", request.key);
  return out;
}

bool parseQuery(const std::string& payload, QueryRequest* out) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  if (!splitPayload(payload, &headers, &body)) return false;
  QueryRequest parsed;
  CommonHeaders common;
  for (const auto& [key, value] : headers) {
    if (common.fold(key, value)) continue;
    if (key == "key") parsed.key = value;
  }
  if (!common.versioned() || parsed.key.empty()) return false;
  parsed.id = common.id;
  parsed.tenant = common.tenant;
  *out = std::move(parsed);
  return true;
}

// ---- Shutdown --------------------------------------------------------------

std::string serializeShutdown(const ShutdownRequest& request) {
  std::string out = protoHeader();
  putU64(out, "id", request.id);
  putKey(out, "scope", request.scope);
  return out;
}

bool parseShutdown(const std::string& payload, ShutdownRequest* out) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  if (!splitPayload(payload, &headers, &body)) return false;
  ShutdownRequest parsed;
  CommonHeaders common;
  for (const auto& [key, value] : headers) {
    if (common.fold(key, value)) continue;
    if (key == "scope") parsed.scope = value;
  }
  if (!common.versioned()) return false;
  if (parsed.scope != "connection" && parsed.scope != "daemon") return false;
  parsed.id = common.id;
  *out = std::move(parsed);
  return true;
}

// ---- Response --------------------------------------------------------------

std::string serializeServeResponse(const ServeResponse& response) {
  std::string out = protoHeader();
  putU64(out, "id", response.id);
  putKey(out, "status", serveStatusName(response.status));
  if (!response.tenant.empty()) putKey(out, "tenant", response.tenant);
  if (!response.error.empty()) putKey(out, "error", response.error);
  putHex64(out, "hash", response.hash);
  putDouble(out, "score", response.score);
  putDouble(out, "seconds", response.seconds);
  putInt(out, "cells", response.cells);
  if (!response.body.empty()) appendBody(out, response.body);
  return out;
}

bool parseServeResponse(const std::string& payload, ServeResponse* out) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  if (!splitPayload(payload, &headers, &body)) return false;
  ServeResponse parsed;
  bool sawStatus = false;
  CommonHeaders common;
  for (const auto& [key, value] : headers) {
    if (common.fold(key, value)) continue;
    if (key == "status") {
      const int status = serveStatusFromName(value);
      if (status < 0) return false;
      parsed.status = static_cast<ServeStatus>(status);
      sawStatus = true;
    } else if (key == "error") {
      parsed.error = value;
    } else if (key == "hash") {
      parsed.hash = std::strtoull(value.c_str(), nullptr, 16);
    } else if (key == "score") {
      parsed.score = std::strtod(value.c_str(), nullptr);
    } else if (key == "seconds") {
      parsed.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "cells") {
      parsed.cells = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    }
  }
  if (!common.versioned() || !sawStatus) return false;
  parsed.id = common.id;
  parsed.tenant = common.tenant;
  parsed.body = std::move(body);
  *out = std::move(parsed);
  return true;
}

}  // namespace mclg
