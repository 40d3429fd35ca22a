// Legalization-as-a-service suite (tools/mclg_serve, src/flow/serve/,
// docs/PROTOCOL.md): payload codec round trips and rejection, frame fuzz
// over the serving frame types, the resident-session transaction
// semantics (commit / rollback / failed requests leave the tenant
// untouched), admission control (Busy) and request budgets (Rejected),
// and the headline identity property — four concurrent tenants streaming
// 100+ interleaved EcoDelta/Commit/Rollback requests each produce
// placement hashes byte-identical to an independent solo replay of the
// same request sequence, and scores bit-identical to its from-scratch
// evaluateScore — plus an end-to-end run against the real mclg_serve and
// mclg_cli binaries.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/metrics.hpp"
#include "eval/score.hpp"
#include "flow/serve/serve_protocol.hpp"
#include "flow/serve/serve_server.hpp"
#include "flow/serve/serve_session.hpp"
#include "gen/benchmark_gen.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/pipeline.hpp"
#include "obs/serve_ledger.hpp"
#include "parsers/simple_format.hpp"
#include "util/executor/executor.hpp"

namespace mclg {
namespace {

// ---- Shared fixtures -------------------------------------------------------

Design testDesign(std::uint64_t seed) {
  GenSpec spec;
  spec.name = "serve_test";
  spec.cellsPerHeight = {260, 40, 15, 10};
  spec.density = 0.6;
  spec.numFences = 2;
  spec.seed = seed;
  return generate(spec);
}

std::vector<CellId> movableCells(const Design& design) {
  std::vector<CellId> out;
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (!design.cells[c].fixed) out.push_back(c);
  }
  return out;
}

/// The config the daemon builds per tenant (ServeSession::load): contest
/// preset, guard on, single-threaded.
PipelineConfig tenantConfig() {
  PipelineConfig config = PipelineConfig::contest();
  config.guard.enabled = true;
  config.setThreads(1);
  return config;
}

/// One request of the deterministic interleaved schedule every tenant (and
/// the solo reference) replays. Exactly one of the fields is active.
struct ScheduledRequest {
  enum class Kind { Eco, Commit, Rollback };
  Kind kind = Kind::Eco;
  std::vector<EcoOp> ops;
};

/// Deterministic schedule: mostly EcoDelta bursts (moves, plus periodic
/// resize and add ops), with commits and rollbacks interleaved. Op targets
/// come from the base design's movable set so every request is valid
/// regardless of prior adds.
std::vector<ScheduledRequest> buildSchedule(const Design& base,
                                            int requests) {
  const std::vector<CellId> movable = movableCells(base);
  std::vector<ScheduledRequest> out;
  for (int k = 0; k < requests; ++k) {
    ScheduledRequest request;
    if (k % 10 == 9) {
      request.kind = ScheduledRequest::Kind::Commit;
      out.push_back(std::move(request));
      continue;
    }
    if (k % 7 == 6) {
      request.kind = ScheduledRequest::Kind::Rollback;
      out.push_back(std::move(request));
      continue;
    }
    for (int i = 0; i < 3; ++i) {
      EcoOp op;
      op.kind = EcoOp::Kind::Move;
      op.cell = movable[(k * 37 + i * 11) % movable.size()];
      op.gpX = static_cast<double>((k * 13 + i * 29) % (base.numSitesX - 1));
      op.gpY = static_cast<double>((k * 7 + i * 3) % (base.numRows - 1));
      request.ops.push_back(op);
    }
    if (k % 4 == 3) {
      // Resize to another type of the same height (a width change the ECO
      // driver must re-place); fall back to a same-type no-op. The new type
      // must keep at least as many pins as the old one, or nets referencing
      // the dropped pins would make the design invalid (the server rejects
      // such a resize as malformed — covered by its own test below).
      const CellId cell = movable[(k * 17) % movable.size()];
      const CellType& now = base.types[base.cells[cell].type];
      EcoOp op;
      op.kind = EcoOp::Kind::Resize;
      op.cell = cell;
      op.type = now.name;
      for (const CellType& type : base.types) {
        if (type.height == now.height && type.parity == now.parity &&
            type.pins.size() >= now.pins.size() && type.name != now.name) {
          op.type = type.name;
          break;
        }
      }
      request.ops.push_back(op);
    }
    if (k % 5 == 2) {
      EcoOp op;
      op.kind = EcoOp::Kind::Add;
      op.type = base.types[k % base.numTypes()].name;
      op.gpX = static_cast<double>((k * 31) % (base.numSitesX - 1));
      op.gpY = static_cast<double>((k * 19) % (base.numRows - 1));
      request.ops.push_back(op);
    }
    out.push_back(std::move(request));
  }
  return out;
}

/// Solo replay of the daemon's session semantics, built directly on the
/// pipeline + ECO driver (no serve code): the independent reference the
/// served hash sequences must match byte for byte.
class SoloReference {
 public:
  explicit SoloReference(const std::string& designText) {
    auto design = readSimpleFormat(designText);
    if (!design) ADD_FAILURE() << "reference design failed to parse";
    current_ = std::move(*design);
    SegmentMap segments(current_);
    PlacementState state(current_);
    legalize(state, segments, tenantConfig());
    snapshot_ = current_;
    score_ = snapshotScore_ = evaluateScore(current_, segments).score;
  }

  std::uint64_t loadHash() const { return placementHash(current_); }

  /// What the daemon reports for one request.
  struct Outcome {
    std::uint64_t hash = 0;  ///< 0 for an eco that was not adopted
    double score = 0.0;      ///< from-scratch evaluateScore of the placement
  };

  Outcome apply(const ScheduledRequest& request) {
    switch (request.kind) {
      case ScheduledRequest::Kind::Commit:
        snapshot_ = current_;
        snapshotScore_ = score_;
        return {placementHash(current_), score_};
      case ScheduledRequest::Kind::Rollback:
        current_ = snapshot_;
        score_ = snapshotScore_;
        return {placementHash(current_), score_};
      case ScheduledRequest::Kind::Eco:
        break;
    }
    Design scratch = current_;
    for (const EcoOp& op : request.ops) {
      if (!applyOp(scratch, op)) return {};
    }
    scratch.invalidateCaches();
    // The daemon holds an edited design to the file parser's invariants.
    if (!scratch.check()) return {};
    ScoreBreakdown score;
    try {
      SegmentMap segments(scratch);
      PlacementState state(scratch);
      EcoConfig eco;
      eco.pipeline = tenantConfig();
      ecoRelegalize(state, segments, snapshot_, eco);
      score = evaluateScore(scratch, segments);
      if (!score.legality.legal()) return {};
    } catch (const std::exception&) {
      return {};
    }
    current_ = std::move(scratch);
    score_ = score.score;
    return {placementHash(current_), score_};
  }

  /// Mirror of ServeSession's op application (kept local on purpose: the
  /// reference must not share code with the layer under test).
  static bool applyOp(Design& design, const EcoOp& op) {
    const auto typeByName = [&](const std::string& name) -> TypeId {
      for (TypeId t = 0; t < design.numTypes(); ++t) {
        if (design.types[t].name == name) return t;
      }
      return -1;
    };
    switch (op.kind) {
      case EcoOp::Kind::Move:
        if (op.cell < 0 || op.cell >= design.numCells()) return false;
        design.cells[op.cell].gpX = op.gpX;
        design.cells[op.cell].gpY = op.gpY;
        return true;
      case EcoOp::Kind::Resize: {
        const TypeId type = typeByName(op.type);
        if (type < 0 || op.cell < 0 || op.cell >= design.numCells()) {
          return false;
        }
        for (const Net& net : design.nets) {
          for (const Net::Conn& conn : net.conns) {
            if (conn.cell == op.cell &&
                conn.pin >=
                    static_cast<int>(design.types[type].pins.size())) {
              return false;
            }
          }
        }
        design.cells[op.cell].type = type;
        return true;
      }
      case EcoOp::Kind::Add: {
        const TypeId type = typeByName(op.type);
        if (type < 0) return false;
        Cell fresh;
        fresh.type = type;
        fresh.gpX = op.gpX;
        fresh.gpY = op.gpY;
        fresh.placed = false;
        fresh.x = -1;
        fresh.y = -1;
        design.cells.push_back(fresh);
        return true;
      }
    }
    return false;
  }

 private:
  Design current_;
  Design snapshot_;
  double score_ = 0.0;
  double snapshotScore_ = 0.0;
};

/// Bit pattern of a double, so score checks are exact to the last bit.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// ---- Socketpair harness ----------------------------------------------------

/// One client connection to an in-process ServeServer: a socketpair whose
/// far end is served by a dedicated thread, exactly as tools/mclg_serve
/// serves an accepted socket.
class Client {
 public:
  Client(ServeServer& server) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    fd_ = fds[0];
    const int serverFd = fds[1];
    thread_ = std::thread([&server, serverFd] {
      server.serveConnection(serverFd, serverFd);
      ::close(serverFd);
    });
  }
  ~Client() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (thread_.joinable()) thread_.join();
  }

  bool send(FrameType type, const std::string& payload) {
    return writeFrame(fd_, type, payload);
  }
  bool sendRaw(const std::string& bytes) {
    return ::write(fd_, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Next Response frame; fails the test on EOF / corruption / non-response.
  ServeResponse recv() {
    ServeResponse response;
    char buffer[1 << 16];
    while (true) {
      for (FrameReader::Frame& frame : reader_.take()) {
        EXPECT_EQ(FrameType::Response, frame.type);
        EXPECT_TRUE(parseServeResponse(frame.payload, &response));
        return response;
      }
      const ssize_t n = ::read(fd_, buffer, sizeof buffer);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while expecting a response";
        return response;
      }
      reader_.feed(buffer, static_cast<std::size_t>(n));
      EXPECT_FALSE(reader_.corrupted());
    }
  }

  /// True when the daemon closed the connection (EOF) with no extra bytes.
  bool eofClean() {
    char buffer[256];
    while (true) {
      const ssize_t n = ::read(fd_, buffer, sizeof buffer);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;
    }
  }

 private:
  int fd_ = -1;
  std::thread thread_;
  FrameReader reader_;
};

ServeResponse roundTrip(Client& client, FrameType type,
                        const std::string& payload) {
  EXPECT_TRUE(client.send(type, payload));
  return client.recv();
}

// ---- Protocol codecs -------------------------------------------------------

TEST(ServeProtocol, RequestCodecsRoundTrip) {
  LoadDesignRequest load;
  load.id = 42;
  load.tenant = "tenant-a";
  load.preset = "totaldisp";
  load.threads = 3;
  load.designText = "MCLG 1\nDESIGN x\nline with = signs\n---\nnested\n";
  LoadDesignRequest load2;
  ASSERT_TRUE(parseLoadDesign(serializeLoadDesign(load), &load2));
  EXPECT_EQ(load.id, load2.id);
  EXPECT_EQ(load.tenant, load2.tenant);
  EXPECT_EQ(load.preset, load2.preset);
  EXPECT_EQ(load.threads, load2.threads);
  EXPECT_EQ(load.designText, load2.designText);  // body is verbatim

  EcoDeltaRequest eco;
  eco.id = 7;
  eco.tenant = "t";
  EcoOp move;
  move.kind = EcoOp::Kind::Move;
  move.cell = 11;
  move.gpX = 1.25;
  move.gpY = 0.5;
  EcoOp resize;
  resize.kind = EcoOp::Kind::Resize;
  resize.cell = 3;
  resize.type = "INV_X4";
  EcoOp add;
  add.kind = EcoOp::Kind::Add;
  add.type = "BUF_X2";
  add.gpX = 9;
  add.gpY = 2;
  add.fence = "fence1";
  eco.ops = {move, resize, add};
  EcoDeltaRequest eco2;
  ASSERT_TRUE(parseEcoDelta(serializeEcoDelta(eco), &eco2));
  ASSERT_EQ(3u, eco2.ops.size());
  EXPECT_EQ(EcoOp::Kind::Move, eco2.ops[0].kind);
  EXPECT_EQ(11, eco2.ops[0].cell);
  EXPECT_EQ(1.25, eco2.ops[0].gpX);
  EXPECT_EQ(EcoOp::Kind::Resize, eco2.ops[1].kind);
  EXPECT_EQ("INV_X4", eco2.ops[1].type);
  EXPECT_EQ(EcoOp::Kind::Add, eco2.ops[2].kind);
  EXPECT_EQ("fence1", eco2.ops[2].fence);

  TenantRequest tenant;
  tenant.id = 9;
  tenant.tenant = "t2";
  TenantRequest tenant2;
  ASSERT_TRUE(parseTenantRequest(serializeTenantRequest(tenant), &tenant2));
  EXPECT_EQ(tenant.id, tenant2.id);
  EXPECT_EQ(tenant.tenant, tenant2.tenant);

  QueryRequest query;
  query.id = 1;
  query.tenant = "";
  query.key = "status";
  QueryRequest query2;
  ASSERT_TRUE(parseQuery(serializeQuery(query), &query2));
  EXPECT_EQ("status", query2.key);
  EXPECT_TRUE(query2.tenant.empty());

  ShutdownRequest shutdown;
  shutdown.id = 2;
  shutdown.scope = "daemon";
  ShutdownRequest shutdown2;
  ASSERT_TRUE(parseShutdown(serializeShutdown(shutdown), &shutdown2));
  EXPECT_EQ("daemon", shutdown2.scope);

  ServeResponse response;
  response.id = 5;
  response.status = ServeStatus::Degraded;
  response.tenant = "t";
  response.error = "multi\nline gets flattened";
  response.hash = 0xdeadbeefcafef00dull;
  response.score = 2.25;
  response.seconds = 0.125;
  response.cells = 1234;
  response.body = "{\"schema\": 6}\n";
  ServeResponse response2;
  ASSERT_TRUE(
      parseServeResponse(serializeServeResponse(response), &response2));
  EXPECT_EQ(response.id, response2.id);
  EXPECT_EQ(ServeStatus::Degraded, response2.status);
  EXPECT_EQ(response.hash, response2.hash);
  EXPECT_EQ(response.score, response2.score);
  EXPECT_EQ(response.cells, response2.cells);
  EXPECT_EQ(response.body, response2.body);
  EXPECT_EQ("multi line gets flattened", response2.error);
}

TEST(ServeProtocol, StatusNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(ServeStatus::Bye); ++i) {
    const auto status = static_cast<ServeStatus>(i);
    EXPECT_EQ(i, serveStatusFromName(serveStatusName(status)));
  }
  EXPECT_EQ(-1, serveStatusFromName("no-such-status"));
  EXPECT_TRUE(serveStatusOk(ServeStatus::Ok));
  EXPECT_TRUE(serveStatusOk(ServeStatus::Degraded));
  EXPECT_FALSE(serveStatusOk(ServeStatus::Busy));
}

TEST(ServeProtocol, MalformedPayloadsAreRejected) {
  LoadDesignRequest load;
  // The proto handshake is mandatory.
  EXPECT_FALSE(parseLoadDesign("id=1\ntenant=t\n---\nMCLG 1\n", &load));
  // A future incompatible version must be refused, not guessed at.
  EXPECT_FALSE(parseLoadDesign("proto=99\ntenant=t\n---\nMCLG 1\n", &load));
  // tenant and a design body are required.
  EXPECT_FALSE(parseLoadDesign("proto=1\nid=1\n---\nMCLG 1\n", &load));
  EXPECT_FALSE(parseLoadDesign("proto=1\ntenant=t\n---\n", &load));
  // A header line without '=' is structurally invalid.
  EXPECT_FALSE(parseLoadDesign("proto=1\nbogus\ntenant=t\n---\nX\n", &load));

  EcoDeltaRequest eco;
  EXPECT_FALSE(parseEcoDelta("proto=1\ntenant=t\n---\nteleport 1 2 3\n", &eco));
  EXPECT_FALSE(parseEcoDelta("proto=1\ntenant=t\n---\nmove 1 2\n", &eco));
  EXPECT_FALSE(parseEcoDelta("proto=1\ntenant=t\n---\nmove 1 2 3 4\n", &eco));
  EXPECT_FALSE(parseEcoDelta("proto=1\ntenant=t\n---\nmove -2 2 3\n", &eco));
  // Declared op count must match the body (truncation guard).
  EXPECT_FALSE(
      parseEcoDelta("proto=1\ntenant=t\nops=2\n---\nmove 1 2 3\n", &eco));
  EXPECT_TRUE(
      parseEcoDelta("proto=1\ntenant=t\nops=1\n---\nmove 1 2 3\n", &eco));

  QueryRequest query;
  EXPECT_FALSE(parseQuery("proto=1\nkey=\n", &query));

  ShutdownRequest shutdown;
  EXPECT_FALSE(parseShutdown("proto=1\nscope=host\n", &shutdown));

  ServeResponse response;
  EXPECT_FALSE(
      parseServeResponse("proto=1\nid=1\nstatus=not-a-status\n", &response));
  EXPECT_FALSE(parseServeResponse("proto=1\nid=1\n", &response));

  // Unknown keys are skipped (forward compatibility), not errors.
  TenantRequest tenant;
  EXPECT_TRUE(parseTenantRequest(
      "proto=1\nid=1\ntenant=t\nfuture_key=whatever\n", &tenant));
  EXPECT_EQ("t", tenant.tenant);
}

// ---- Frame fuzz over the serving types -------------------------------------

std::string rawFrame(std::uint32_t magic, std::uint32_t type,
                     std::uint32_t length, const std::string& payload) {
  std::string out;
  const auto putU32 = [&out](std::uint32_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
  };
  putU32(magic);
  putU32(type);
  putU32(length);
  out += payload;
  return out;
}

TEST(ServeFrameFuzz, ByteByByteFeedYieldsSameFrames) {
  QueryRequest query;
  query.id = 3;
  query.tenant = "t";
  query.key = "score";
  ShutdownRequest shutdown;
  const std::string stream =
      rawFrame(kFrameMagic, static_cast<std::uint32_t>(FrameType::Query),
               static_cast<std::uint32_t>(serializeQuery(query).size()),
               serializeQuery(query)) +
      rawFrame(kFrameMagic, static_cast<std::uint32_t>(FrameType::Shutdown),
               static_cast<std::uint32_t>(serializeShutdown(shutdown).size()),
               serializeShutdown(shutdown));
  FrameReader reader;
  std::vector<FrameReader::Frame> frames;
  for (char c : stream) {
    reader.feed(&c, 1);
    for (auto& frame : reader.take()) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(2u, frames.size());
  EXPECT_EQ(FrameType::Query, frames[0].type);
  EXPECT_EQ(FrameType::Shutdown, frames[1].type);
  EXPECT_EQ(serializeQuery(query), frames[0].payload);
  EXPECT_FALSE(reader.corrupted());
  EXPECT_EQ(0u, reader.pendingBytes());
}

TEST(ServeFrameFuzz, CorruptionIsSticky) {
  {  // bad magic
    FrameReader reader;
    const std::string bad = rawFrame(0x12345678u, 10, 0, "");
    reader.feed(bad.data(), bad.size());
    EXPECT_TRUE(reader.corrupted());
    // Feeding a perfectly valid frame afterwards yields nothing.
    const std::string good = rawFrame(
        kFrameMagic, static_cast<std::uint32_t>(FrameType::Commit), 0, "");
    reader.feed(good.data(), good.size());
    EXPECT_TRUE(reader.corrupted());
    EXPECT_TRUE(reader.take().empty());
  }
  {  // oversized length
    FrameReader reader;
    const std::string bad =
        rawFrame(kFrameMagic, static_cast<std::uint32_t>(FrameType::EcoDelta),
                 kMaxFramePayload + 1, "");
    reader.feed(bad.data(), bad.size());
    EXPECT_TRUE(reader.corrupted());
  }
  {  // unknown frame type just past the serving range
    FrameReader reader;
    const std::string bad = rawFrame(kFrameMagic, 13, 0, "");
    reader.feed(bad.data(), bad.size());
    EXPECT_TRUE(reader.corrupted());
  }
  {  // type 0 below the range
    FrameReader reader;
    const std::string bad = rawFrame(kFrameMagic, 0, 0, "");
    reader.feed(bad.data(), bad.size());
    EXPECT_TRUE(reader.corrupted());
  }
}

TEST(ServeFrameFuzz, TruncatedFrameIsPendingNotCorrupt) {
  const std::string payload = "proto=1\nid=1\ntenant=t\n";
  const std::string frame =
      rawFrame(kFrameMagic, static_cast<std::uint32_t>(FrameType::Commit),
               static_cast<std::uint32_t>(payload.size()), payload);
  FrameReader reader;
  reader.feed(frame.data(), frame.size() - 5);
  EXPECT_FALSE(reader.corrupted());
  EXPECT_TRUE(reader.take().empty());
  // Truncation is visible as buffered bytes — EOF now means Protocol error.
  EXPECT_GT(reader.pendingBytes(), 0u);
}

// ---- Ledger ----------------------------------------------------------------

TEST(ServeLedger, RendersStatusLineAndTable) {
  obs::ServeLedger ledger;
  ledger.tenantLoaded("alpha", 1.0);
  obs::ServeLedger::RequestOutcome outcome;
  outcome.verb = "eco";
  outcome.status = "ok";
  outcome.ok = true;
  outcome.seconds = 0.25;
  outcome.hash = 0xabcull;
  outcome.cells = 10;
  ledger.requestFinished("alpha", outcome, 2.0);
  outcome.verb = "commit";
  ledger.requestFinished("alpha", outcome, 3.0);
  outcome.verb = "eco";
  outcome.status = "rejected";
  outcome.ok = false;
  ledger.requestFinished("alpha", outcome, 4.0);
  ledger.busyRejected("alpha");

  EXPECT_EQ(1, ledger.tenants());
  EXPECT_EQ(3, ledger.requests());
  EXPECT_EQ(1, ledger.busy());
  EXPECT_EQ(1, ledger.failures());

  const std::string line = ledger.renderStatusLine(5.0);
  EXPECT_NE(std::string::npos, line.find("1 tenants"));
  EXPECT_NE(std::string::npos, line.find("3 requests"));
  EXPECT_NE(std::string::npos, line.find("1 failed"));
  EXPECT_NE(std::string::npos, line.find("1 busy"));
  EXPECT_NE(std::string::npos, line.find("last alpha eco rejected"));

  const std::string table = ledger.renderStatusTable(5.0);
  EXPECT_NE(std::string::npos, table.find("tenant"));
  EXPECT_NE(std::string::npos, table.find("alpha"));
  EXPECT_NE(std::string::npos, table.find("eco:rejected"));
  EXPECT_NE(std::string::npos, table.find("0000000000000abc"));
}

// ---- Server: lifecycle and failure paths -----------------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  ServeServerTest() : design_(testDesign(4001)) {
    designText_ = writeSimpleFormat(design_);
  }

  static std::string loadPayload(const std::string& tenant,
                                 const std::string& designText,
                                 std::uint64_t id = 1) {
    LoadDesignRequest request;
    request.id = id;
    request.tenant = tenant;
    request.designText = designText;
    return serializeLoadDesign(request);
  }

  static std::string ecoPayload(const std::string& tenant,
                                const std::vector<EcoOp>& ops,
                                std::uint64_t id = 2) {
    EcoDeltaRequest request;
    request.id = id;
    request.tenant = tenant;
    request.ops = ops;
    return serializeEcoDelta(request);
  }

  static std::string tenantPayload(const std::string& tenant,
                                   std::uint64_t id = 3) {
    TenantRequest request;
    request.id = id;
    request.tenant = tenant;
    return serializeTenantRequest(request);
  }

  static std::string queryPayload(const std::string& tenant,
                                  const std::string& key,
                                  std::uint64_t id = 4) {
    QueryRequest request;
    request.id = id;
    request.tenant = tenant;
    request.key = key;
    return serializeQuery(request);
  }

  static EcoOp moveOp(CellId cell, double gpX, double gpY) {
    EcoOp op;
    op.kind = EcoOp::Kind::Move;
    op.cell = cell;
    op.gpX = gpX;
    op.gpY = gpY;
    return op;
  }

  Design design_;
  std::string designText_;
};

TEST_F(ServeServerTest, SingleTenantLifecycle) {
  ServeServer server{ServeConfig{}};
  Client client(server);

  const ServeResponse loaded =
      roundTrip(client, FrameType::LoadDesign, loadPayload("t0", designText_));
  ASSERT_EQ(ServeStatus::Ok, loaded.status) << loaded.error;
  EXPECT_EQ(1u, loaded.id);
  EXPECT_EQ("t0", loaded.tenant);
  EXPECT_EQ(design_.numCells(), loaded.cells);
  EXPECT_NE(0u, loaded.hash);
  EXPECT_NE(std::string::npos, loaded.body.find("schema_version"));
  const std::uint64_t h0 = loaded.hash;

  // A duplicate load of the same tenant is refused.
  const ServeResponse dup =
      roundTrip(client, FrameType::LoadDesign, loadPayload("t0", designText_));
  EXPECT_EQ(ServeStatus::TenantExists, dup.status);

  const std::vector<CellId> movable = movableCells(design_);
  const ServeResponse eco1 = roundTrip(
      client, FrameType::EcoDelta,
      ecoPayload("t0", {moveOp(movable[0], 5, 5), moveOp(movable[1], 9, 3)}));
  ASSERT_TRUE(serveStatusOk(eco1.status)) << eco1.error;
  EXPECT_NE(h0, eco1.hash);
  EXPECT_NE(std::string::npos, eco1.body.find("\"eco\""));

  // Rollback before commit: the uncommitted ECO result is discarded, and
  // with it its score and run report.
  const ServeResponse rolled =
      roundTrip(client, FrameType::Rollback, tenantPayload("t0"));
  ASSERT_EQ(ServeStatus::Ok, rolled.status);
  EXPECT_EQ(h0, rolled.hash);
  EXPECT_EQ(bits(loaded.score), bits(rolled.score));
  const ServeResponse reportAfterRollback =
      roundTrip(client, FrameType::Query, queryPayload("t0", "report"));
  ASSERT_EQ(ServeStatus::Ok, reportAfterRollback.status);
  EXPECT_EQ(loaded.body, reportAfterRollback.body)
      << "Query report must describe the restored placement";
  EXPECT_EQ(bits(loaded.score), bits(reportAfterRollback.score));

  // Same delta again, then commit: the snapshot advances.
  const ServeResponse eco2 = roundTrip(
      client, FrameType::EcoDelta,
      ecoPayload("t0", {moveOp(movable[0], 5, 5), moveOp(movable[1], 9, 3)}));
  ASSERT_TRUE(serveStatusOk(eco2.status)) << eco2.error;
  EXPECT_EQ(eco1.hash, eco2.hash) << "replayed delta must be deterministic";
  const ServeResponse committed =
      roundTrip(client, FrameType::Commit, tenantPayload("t0"));
  ASSERT_EQ(ServeStatus::Ok, committed.status);
  EXPECT_EQ(eco2.hash, committed.hash);
  EXPECT_EQ(bits(eco2.score), bits(committed.score));
  const ServeResponse rolledAfterCommit =
      roundTrip(client, FrameType::Rollback, tenantPayload("t0"));
  EXPECT_EQ(eco2.hash, rolledAfterCommit.hash);
  EXPECT_EQ(bits(eco2.score), bits(rolledAfterCommit.score));
  EXPECT_EQ(eco2.body,
            roundTrip(client, FrameType::Query, queryPayload("t0", "report"))
                .body);

  // A malformed op leaves the tenant untouched (Malformed, hash unchanged).
  const ServeResponse badEco =
      roundTrip(client, FrameType::EcoDelta,
                ecoPayload("t0", {moveOp(design_.numCells() + 50000, 1, 1)}));
  EXPECT_EQ(ServeStatus::Malformed, badEco.status);
  const ServeResponse afterBad =
      roundTrip(client, FrameType::Query, queryPayload("t0", "score"));
  ASSERT_EQ(ServeStatus::Ok, afterBad.status);
  EXPECT_EQ(eco2.hash, afterBad.hash);
  EXPECT_NE(std::string::npos, afterBad.body.find("score"));

  // Query design returns the placement byte-exactly.
  const ServeResponse designDoc =
      roundTrip(client, FrameType::Query, queryPayload("t0", "design"));
  ASSERT_EQ(ServeStatus::Ok, designDoc.status);
  auto parsed = readSimpleFormat(designDoc.body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(eco2.hash, placementHash(*parsed));

  // Query report / daemon status / unknown key.
  const ServeResponse report =
      roundTrip(client, FrameType::Query, queryPayload("t0", "report"));
  ASSERT_EQ(ServeStatus::Ok, report.status);
  EXPECT_NE(std::string::npos, report.body.find("schema_version"));
  const ServeResponse status =
      roundTrip(client, FrameType::Query, queryPayload("", "status"));
  ASSERT_EQ(ServeStatus::Ok, status.status);
  EXPECT_NE(std::string::npos, status.body.find("t0"));
  const ServeResponse badKey =
      roundTrip(client, FrameType::Query, queryPayload("t0", "telemetry"));
  EXPECT_EQ(ServeStatus::Malformed, badKey.status);

  // Requests against a tenant that was never loaded.
  const ServeResponse unknown =
      roundTrip(client, FrameType::EcoDelta,
                ecoPayload("ghost", {moveOp(movable[0], 1, 1)}));
  EXPECT_EQ(ServeStatus::UnknownTenant, unknown.status);

  // Shutdown scope=connection: Bye, then EOF.
  ShutdownRequest shutdown;
  shutdown.id = 99;
  const ServeResponse bye = roundTrip(client, FrameType::Shutdown,
                                      serializeShutdown(shutdown));
  EXPECT_EQ(ServeStatus::Bye, bye.status);
  EXPECT_EQ(99u, bye.id);
  EXPECT_TRUE(client.eofClean());
  EXPECT_FALSE(server.shutdownRequested());
  EXPECT_EQ(1, server.tenants());
}

TEST_F(ServeServerTest, MalformedAndUnexpectedFramesAnswerMalformed) {
  ServeServer server{ServeConfig{}};
  Client client(server);

  // Structurally broken payloads on every request type.
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::LoadDesign, "no proto here").status);
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::EcoDelta,
                      "proto=1\ntenant=t\n---\nwarp 1 2 3\n")
                .status);
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::Commit, "proto=1\n").status);
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::Rollback, "tenant=t\n").status);
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::Query, "proto=1\nkey=\n").status);
  EXPECT_EQ(
      ServeStatus::Malformed,
      roundTrip(client, FrameType::Shutdown, "proto=1\nscope=moon\n").status);

  // Worker->supervisor frame types are not serve requests.
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::Heartbeat, "pid=1\n").status);
  EXPECT_EQ(ServeStatus::Malformed,
            roundTrip(client, FrameType::Result, "status=ok\n").status);
}

// An unknown preset is refused before any legalization: no session opens,
// and the tenant name stays free for a corrected load.
TEST_F(ServeServerTest, UnknownPresetOpensNoSession) {
  ServeServer server{ServeConfig{}};
  Client client(server);
  LoadDesignRequest typo;
  typo.id = 1;
  typo.tenant = "t0";
  typo.preset = "typo";
  typo.designText = designText_;
  const ServeResponse refused = roundTrip(client, FrameType::LoadDesign,
                                          serializeLoadDesign(typo));
  EXPECT_EQ(ServeStatus::Malformed, refused.status);
  EXPECT_NE(std::string::npos, refused.error.find("unknown preset 'typo'"));
  EXPECT_EQ(0, server.tenants());
  EXPECT_EQ(ServeStatus::UnknownTenant,
            roundTrip(client, FrameType::Commit, tenantPayload("t0")).status);

  const ServeResponse loaded =
      roundTrip(client, FrameType::LoadDesign, loadPayload("t0", designText_));
  EXPECT_EQ(ServeStatus::Ok, loaded.status) << loaded.error;
  EXPECT_EQ(1, server.tenants());
}

TEST_F(ServeServerTest, CorruptStreamGetsOneAnswerThenHangup) {
  ServeServer server{ServeConfig{}};
  Client client(server);
  // Valid query first proves the connection works.
  EXPECT_EQ(ServeStatus::Ok,
            roundTrip(client, FrameType::Query, queryPayload("", "status"))
                .status);
  // Garbage magic: the daemon answers Malformed once, then hangs up.
  ASSERT_TRUE(client.sendRaw(rawFrame(0x00c0ffeeu, 6, 4, "zzzz")));
  const ServeResponse last = client.recv();
  EXPECT_EQ(ServeStatus::Malformed, last.status);
  EXPECT_NE(std::string::npos, last.error.find("corrupt"));
  EXPECT_TRUE(client.eofClean());
}

TEST_F(ServeServerTest, DaemonShutdownIsGatedByConfig) {
  ShutdownRequest daemonScope;
  daemonScope.scope = "daemon";
  {
    ServeServer server{ServeConfig{}};
    Client client(server);
    const ServeResponse refused = roundTrip(
        client, FrameType::Shutdown, serializeShutdown(daemonScope));
    EXPECT_EQ(ServeStatus::Malformed, refused.status);
    EXPECT_FALSE(server.shutdownRequested());
    // The connection stays usable after the refusal.
    EXPECT_EQ(ServeStatus::Ok,
              roundTrip(client, FrameType::Query, queryPayload("", "status"))
                  .status);
  }
  {
    ServeConfig config;
    config.allowRemoteShutdown = true;  // the --stdio / flag-gated mode
    ServeServer server(config);
    Client client(server);
    const ServeResponse bye = roundTrip(client, FrameType::Shutdown,
                                        serializeShutdown(daemonScope));
    EXPECT_EQ(ServeStatus::Bye, bye.status);
    EXPECT_TRUE(client.eofClean());
    EXPECT_TRUE(server.shutdownRequested());
  }
}

TEST_F(ServeServerTest, AdmissionControlAnswersBusy) {
  Executor executor(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  ServeConfig config;
  config.executor = ExecutorRef(&executor);
  config.maxInFlight = 1;
  config.queueDepth = 0;
  config.testRequestHook = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  ServeServer server(config);

  Client slow(server);
  Client bounced(server);

  // First load occupies the single execution slot inside the hook.
  std::thread loader([&] {
    EXPECT_TRUE(
        slow.send(FrameType::LoadDesign, loadPayload("t0", designText_)));
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }

  // Second expensive request: no slot, no queue -> Busy immediately.
  const ServeResponse busy = roundTrip(
      bounced, FrameType::LoadDesign, loadPayload("t1", designText_, 7));
  EXPECT_EQ(ServeStatus::Busy, busy.status);
  EXPECT_EQ(7u, busy.id);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  loader.join();
  const ServeResponse loaded = slow.recv();
  EXPECT_EQ(ServeStatus::Ok, loaded.status) << loaded.error;

  // The slot freed: the bounced tenant loads fine on retry. The hook must
  // not block again — disarm by releasing immediately (release stays true).
  const ServeResponse retry = roundTrip(
      bounced, FrameType::LoadDesign, loadPayload("t1", designText_, 8));
  EXPECT_EQ(ServeStatus::Ok, retry.status) << retry.error;
  EXPECT_EQ(2, server.tenants());
  EXPECT_NE(std::string::npos, server.statusLine().find("busy"));
}

TEST_F(ServeServerTest, ThrowingRequestAnswersInternal) {
  // A request that throws something other than std::exception still gets
  // an Internal answer, frees its admission slot, and leaves the
  // connection serving.
  std::atomic<bool> armed{true};
  ServeConfig config;
  config.maxInFlight = 1;
  config.testRequestHook = [&] {
    if (armed.load()) throw 42;
  };
  ServeServer server(config);
  Client client(server);

  const ServeResponse failedLoad = roundTrip(
      client, FrameType::LoadDesign, loadPayload("t0", designText_, 5));
  EXPECT_EQ(ServeStatus::Internal, failedLoad.status);
  EXPECT_EQ(5u, failedLoad.id);
  EXPECT_EQ("t0", failedLoad.tenant);
  EXPECT_EQ(0, server.tenants());
  EXPECT_EQ(ServeStatus::UnknownTenant,
            roundTrip(client, FrameType::Query, queryPayload("t0", "score"))
                .status);

  armed.store(false);
  const ServeResponse loaded =
      roundTrip(client, FrameType::LoadDesign, loadPayload("t0", designText_));
  ASSERT_EQ(ServeStatus::Ok, loaded.status) << loaded.error;

  armed.store(true);
  const std::vector<CellId> movable = movableCells(design_);
  const ServeResponse failedEco = roundTrip(
      client, FrameType::EcoDelta, ecoPayload("t0", {moveOp(movable[0], 5, 5)}));
  EXPECT_EQ(ServeStatus::Internal, failedEco.status);
  const ServeResponse after =
      roundTrip(client, FrameType::Query, queryPayload("t0", "score"));
  ASSERT_EQ(ServeStatus::Ok, after.status) << after.error;
  EXPECT_EQ(loaded.hash, after.hash);
}

TEST_F(ServeServerTest, ExhaustedRequestBudgetAnswersRejected) {
  ServeConfig config;
  config.requestBudgetSeconds = 1e-9;  // expires before any stage runs
  ServeServer server(config);
  Client client(server);
  const ServeResponse rejected =
      roundTrip(client, FrameType::LoadDesign, loadPayload("t0", designText_));
  EXPECT_EQ(ServeStatus::Rejected, rejected.status);
  // The tenant was never registered.
  EXPECT_EQ(0, server.tenants());
  const ServeResponse unknown =
      roundTrip(client, FrameType::Query, queryPayload("t0", "score"));
  EXPECT_EQ(ServeStatus::UnknownTenant, unknown.status);
}

TEST_F(ServeServerTest, EcoBudgetExpiryRollsTenantBack) {
  // Session-level: load without a budget, then apply a delta whose request
  // deadline is already exhausted — Rejected, placement untouched.
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "t";
  load.designText = designText_;
  ServeResponse response;
  auto session = ServeSession::load(load, ServeSessionConfig{}, &response);
  ASSERT_NE(nullptr, session) << response.error;

  // The expired request follows an accepted but uncommitted delta, so the
  // rollback must restore that delta's placement, not the committed one.
  const std::vector<CellId> movable = movableCells(design_);
  ScheduledRequest first;
  first.ops = {moveOp(movable[1], 20, 6), moveOp(movable[2], 4, 9)};
  ScheduledRequest expired;
  expired.ops = {moveOp(movable[0], 3, 3)};
  ScheduledRequest next;
  next.ops = {moveOp(movable[0], 3, 3), moveOp(movable[3], 11, 2)};

  EcoDeltaRequest eco;
  eco.id = 2;
  eco.tenant = "t";
  eco.ops = first.ops;
  const ServeResponse accepted = session->applyDelta(eco, Deadline());
  ASSERT_TRUE(serveStatusOk(accepted.status)) << accepted.error;

  eco.id = 3;
  eco.ops = expired.ops;
  const ServeResponse rejected =
      session->applyDelta(eco, Deadline::after(1e-9));
  EXPECT_EQ(ServeStatus::Rejected, rejected.status);
  EXPECT_NE(std::string::npos, rejected.error.find("budget exhausted"));

  QueryRequest query;
  query.id = 4;
  query.tenant = "t";
  query.key = "score";
  const ServeResponse after = session->query(query);
  EXPECT_EQ(accepted.hash, after.hash)
      << "expired request must leave the tenant as-is";
  EXPECT_EQ(bits(accepted.score), bits(after.score));

  // The next request sees exactly the first delta's placement: its result
  // matches a solo replay in which the expired request never happened.
  eco.id = 5;
  eco.ops = next.ops;
  const ServeResponse resumed = session->applyDelta(eco, Deadline());
  ASSERT_TRUE(serveStatusOk(resumed.status)) << resumed.error;
  SoloReference reference(designText_);
  EXPECT_EQ(accepted.hash, reference.apply(first).hash);
  const SoloReference::Outcome expected = reference.apply(next);
  EXPECT_EQ(expected.hash, resumed.hash);
  EXPECT_EQ(bits(expected.score), bits(resumed.score));
}

TEST_F(ServeServerTest, ResizeRoundTripsAndFailedRequestsMatchSoloReplay) {
  // The corner cases of seeding an ECO run from the session's undo log: a
  // cell resized away and then back to its committed type inside one
  // uncommitted chain (clean again, so it must be re-placed at its
  // committed spot, or become unreplayable when a neighbor took it), cells
  // added and then edited by later requests, and requests that fail on
  // their last op after earlier ops already edited the resident design.
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "t";
  load.designText = designText_;
  ServeResponse loaded;
  auto session = ServeSession::load(load, ServeSessionConfig{}, &loaded);
  ASSERT_NE(nullptr, session) << loaded.error;
  SoloReference reference(designText_);
  ASSERT_EQ(reference.loadHash(), loaded.hash);

  const std::vector<CellId> movable = movableCells(design_);
  const auto alternativeType = [&](CellId c) -> std::string {
    const CellType& now = design_.types[design_.cells[c].type];
    for (const CellType& type : design_.types) {
      if (type.name != now.name && type.height == now.height &&
          type.parity == now.parity && type.pins.size() >= now.pins.size()) {
        return type.name;
      }
    }
    return now.name;
  };

  std::vector<ScheduledRequest> schedule;
  int eco = 0;
  for (int k = 0; k < 40; ++k) {
    ScheduledRequest request;
    if (k % 9 == 8) {
      request.kind = k % 18 == 8 ? ScheduledRequest::Kind::Rollback
                                 : ScheduledRequest::Kind::Commit;
      schedule.push_back(std::move(request));
      continue;
    }
    // Requests come in pairs: the first resizes a cell away from its
    // type, the second resizes it back.
    const int pair = eco / 2;
    const bool back = eco % 2 == 1;
    ++eco;
    const CellId cell =
        movable[static_cast<std::size_t>(pair * 53) % movable.size()];
    EcoOp resize;
    resize.kind = EcoOp::Kind::Resize;
    resize.cell = cell;
    resize.type = back ? design_.types[design_.cells[cell].type].name
                       : alternativeType(cell);
    request.ops.push_back(resize);
    request.ops.push_back(moveOp(
        movable[static_cast<std::size_t>(k * 29 + 7) % movable.size()],
        static_cast<double>((k * 17) % (design_.numSitesX - 1)),
        static_cast<double>((k * 5) % (design_.numRows - 1))));
    if (k % 5 == 2) {
      EcoOp add;
      add.kind = EcoOp::Kind::Add;
      add.type = design_.types[static_cast<std::size_t>(k) %
                               design_.types.size()]
                     .name;
      add.gpX = static_cast<double>((k * 31) % (design_.numSitesX - 1));
      add.gpY = static_cast<double>((k * 11) % (design_.numRows - 1));
      request.ops.push_back(add);
    }
    if (k % 5 == 4) {
      // Edit the first cell a request added (malformed if none survived).
      request.ops.push_back(moveOp(design_.numCells(), 12, 3));
    }
    if (k % 7 == 5) {
      // Fails on the last op, after the others edited the design.
      request.ops.push_back(moveOp(design_.numCells() + 5000, 1, 1));
    }
    schedule.push_back(std::move(request));
  }

  std::uint64_t id = 2;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const ScheduledRequest& request = schedule[k];
    ServeResponse response;
    switch (request.kind) {
      case ScheduledRequest::Kind::Eco: {
        EcoDeltaRequest delta;
        delta.id = id;
        delta.tenant = "t";
        delta.ops = request.ops;
        response = session->applyDelta(delta, Deadline());
        break;
      }
      case ScheduledRequest::Kind::Commit:
      case ScheduledRequest::Kind::Rollback: {
        TenantRequest tenant;
        tenant.id = id;
        tenant.tenant = "t";
        response = request.kind == ScheduledRequest::Kind::Commit
                       ? session->commit(tenant)
                       : session->rollback(tenant);
        break;
      }
    }
    ++id;
    const SoloReference::Outcome expected = reference.apply(request);
    const bool ok = serveStatusOk(response.status);
    ASSERT_EQ(expected.hash, ok ? response.hash : 0)
        << "request " << k << ": " << response.error;
    ASSERT_EQ(bits(expected.score), bits(ok ? response.score : 0.0))
        << "request " << k;
  }

  QueryRequest query;
  query.id = id;
  query.tenant = "t";
  query.key = "design";
  const auto placed = readSimpleFormat(session->query(query).body);
  ASSERT_TRUE(placed.has_value());
  query.key = "score";
  const SegmentMap segments(*placed);
  EXPECT_EQ(bits(evaluateScore(*placed, segments).score),
            bits(session->query(query).score));
}

TEST_F(ServeServerTest, ResizeDroppingNetPinIsMalformed) {
  // A net references cell pins by index into the type's pin list, so a
  // resize to a type with fewer pins would dangle those indexes — exactly
  // what the file parser rejects as "net pin index out of range". The
  // in-memory path must refuse it the same way: Malformed, tenant as-is.
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "t";
  load.designText = designText_;
  ServeResponse response;
  auto session = ServeSession::load(load, ServeSessionConfig{}, &response);
  ASSERT_NE(nullptr, session) << response.error;
  const std::uint64_t h0 = response.hash;

  // A movable cell with a net connection, and a type too small for it.
  CellId victim = kInvalidCell;
  std::string smallType;
  for (const Net& net : design_.nets) {
    for (const Net::Conn& conn : net.conns) {
      if (design_.cells[conn.cell].fixed) continue;
      for (const CellType& type : design_.types) {
        if (static_cast<int>(type.pins.size()) <= conn.pin) {
          victim = conn.cell;
          smallType = type.name;
          break;
        }
      }
      if (victim != kInvalidCell) break;
    }
    if (victim != kInvalidCell) break;
  }
  if (victim == kInvalidCell) {
    GTEST_SKIP() << "every type keeps every referenced pin in this design";
  }

  EcoDeltaRequest eco;
  eco.id = 2;
  eco.tenant = "t";
  EcoOp resize;
  resize.kind = EcoOp::Kind::Resize;
  resize.cell = victim;
  resize.type = smallType;
  eco.ops = {resize};
  const ServeResponse rejected = session->applyDelta(eco, Deadline());
  EXPECT_EQ(ServeStatus::Malformed, rejected.status);
  EXPECT_NE(std::string::npos, rejected.error.find("has no pin"))
      << rejected.error;

  QueryRequest query;
  query.id = 3;
  query.tenant = "t";
  query.key = "report";
  EXPECT_EQ(h0, session->query(query).hash)
      << "a malformed resize must leave the tenant as-is";
}

// ---- The identity property -------------------------------------------------

TEST_F(ServeServerTest, FourConcurrentTenantsMatchSoloReplayByteForByte) {
  constexpr int kTenants = 4;
  constexpr int kRequests = 100;

  // Reference first: one solo replay of the schedule, no serve code.
  const std::vector<ScheduledRequest> schedule =
      buildSchedule(design_, kRequests);
  SoloReference reference(designText_);
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> expectedScores;
  expected.push_back(reference.loadHash());
  for (const ScheduledRequest& request : schedule) {
    const SoloReference::Outcome outcome = reference.apply(request);
    expected.push_back(outcome.hash);
    expectedScores.push_back(bits(outcome.score));
  }

  Executor executor(kTenants);
  ServeConfig config;
  config.executor = ExecutorRef(&executor);
  config.maxInFlight = kTenants;
  ServeServer server(config);

  std::vector<std::vector<std::uint64_t>> got(kTenants);
  std::vector<std::vector<std::uint64_t>> gotScores(kTenants);
  // Per tenant: Query score after each Commit/Rollback vs a from-scratch
  // evaluateScore of Query design.
  std::vector<int> scoreQueryMismatches(kTenants, 0);
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      Client client(server);
      const ServeResponse loaded = roundTrip(
          client, FrameType::LoadDesign, loadPayload(tenant, designText_));
      ASSERT_EQ(ServeStatus::Ok, loaded.status) << loaded.error;
      got[t].push_back(loaded.hash);
      std::uint64_t id = 2;
      for (const ScheduledRequest& request : schedule) {
        ServeResponse response;
        switch (request.kind) {
          case ScheduledRequest::Kind::Eco:
            response = roundTrip(client, FrameType::EcoDelta,
                                 ecoPayload(tenant, request.ops, id));
            break;
          case ScheduledRequest::Kind::Commit:
            response =
                roundTrip(client, FrameType::Commit, tenantPayload(tenant, id));
            break;
          case ScheduledRequest::Kind::Rollback:
            response = roundTrip(client, FrameType::Rollback,
                                 tenantPayload(tenant, id));
            break;
        }
        EXPECT_EQ(id, response.id);
        const bool ok = serveStatusOk(response.status);
        got[t].push_back(ok ? response.hash : 0);
        gotScores[t].push_back(ok ? bits(response.score) : bits(0.0));
        if (request.kind != ScheduledRequest::Kind::Eco) {
          const ServeResponse cached = roundTrip(
              client, FrameType::Query, queryPayload(tenant, "score"));
          const ServeResponse placed = roundTrip(
              client, FrameType::Query, queryPayload(tenant, "design"));
          const auto parsed = readSimpleFormat(placed.body);
          if (!parsed) {
            ++scoreQueryMismatches[t];
          } else {
            const SegmentMap segments(*parsed);
            if (bits(evaluateScore(*parsed, segments).score) !=
                bits(cached.score)) {
              ++scoreQueryMismatches[t];
            }
          }
        }
        ++id;
      }
    });
  }
  for (std::thread& thread : tenants) thread.join();

  ASSERT_EQ(kRequests + 1, static_cast<int>(expected.size()));
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_EQ(expected.size(), got[t].size()) << "tenant " << t;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(expected[k], got[t][k])
          << "tenant " << t << " diverged from the solo replay at request "
          << k;
    }
    // The resident score terms match a from-scratch evaluation bit for bit.
    ASSERT_EQ(expectedScores.size(), gotScores[t].size()) << "tenant " << t;
    for (std::size_t k = 0; k < expectedScores.size(); ++k) {
      ASSERT_EQ(expectedScores[k], gotScores[t][k])
          << "tenant " << t << " score diverged from evaluateScore at "
          << "request " << k + 1;
    }
    EXPECT_EQ(0, scoreQueryMismatches[t]) << "tenant " << t;
  }
  EXPECT_EQ(kTenants, server.tenants());
}

// ---- End to end against the real binaries ----------------------------------

#if defined(MCLG_SERVE_BIN) && defined(MCLG_CLI_BIN)

std::string shellQuote(const std::string& s) { return "'" + s + "'"; }

bool runCommand(const std::string& command) {
  // Exit 2 is "legalized, but after guard degradation" — the same outcomes
  // serveStatusOk() accepts (Ok | Degraded), so the parity run keeps going.
  const int rc = std::system(command.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return false;
  const int code = WEXITSTATUS(rc);
  return code == 0 || code == 2;
}

TEST(ServeEndToEnd, StdioDaemonMatchesCliEcoRuns) {
  const std::string serveBin = MCLG_SERVE_BIN;
  const std::string cliBin = MCLG_CLI_BIN;
  if (!std::filesystem::exists(serveBin) ||
      !std::filesystem::exists(cliBin)) {
    GTEST_SKIP() << "tool binaries not built";
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("serve_e2e_tmp");
  fs::create_directories(dir);

  const Design base = testDesign(77);
  const std::string baseText = writeSimpleFormat(base);
  {
    std::ofstream out(dir / "base.mclg");
    out << baseText;
  }

  // CLI reference: full legalize, then one --eco-from run per request with
  // the edited design written from the test's own op application.
  ASSERT_TRUE(runCommand(cliBin + " legalize --in " +
                         shellQuote((dir / "base.mclg").string()) + " --out " +
                         shellQuote((dir / "legal.mclg").string()) +
                         " > /dev/null"));
  auto current = loadDesign((dir / "legal.mclg").string());
  ASSERT_TRUE(current.has_value());
  Design snapshot = *current;

  // 12 requests: a chain of six uncommitted deltas, a Rollback (k = 6), two
  // more deltas, a Commit (k = 9) and two deltas on the new snapshot.
  const std::vector<ScheduledRequest> schedule = buildSchedule(base, 12);
  std::vector<std::uint64_t> cliHashes;
  cliHashes.push_back(placementHash(*current));
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const ScheduledRequest& request = schedule[k];
    if (request.kind == ScheduledRequest::Kind::Commit) {
      snapshot = *current;
      cliHashes.push_back(placementHash(*current));
      continue;
    }
    if (request.kind == ScheduledRequest::Kind::Rollback) {
      *current = snapshot;
      cliHashes.push_back(placementHash(*current));
      continue;
    }
    Design edited = *current;
    for (const EcoOp& op : request.ops) {
      ASSERT_TRUE(SoloReference::applyOp(edited, op));
    }
    edited.invalidateCaches();
    const fs::path editedPath = dir / ("edited" + std::to_string(k) + ".mclg");
    const fs::path snapPath = dir / ("snap" + std::to_string(k) + ".mclg");
    const fs::path outPath = dir / ("out" + std::to_string(k) + ".mclg");
    ASSERT_TRUE(saveDesign(edited, editedPath.string()));
    ASSERT_TRUE(saveDesign(snapshot, snapPath.string()));
    ASSERT_TRUE(runCommand(cliBin + " legalize --in " +
                           shellQuote(editedPath.string()) + " --eco-from " +
                           shellQuote(snapPath.string()) + " --out " +
                           shellQuote(outPath.string()) + " > /dev/null"));
    current = loadDesign(outPath.string());
    ASSERT_TRUE(current.has_value());
    cliHashes.push_back(placementHash(*current));
  }

  // Daemon run: the whole request stream through `mclg_serve --stdio`.
  std::string stream;
  const auto append = [&stream](FrameType type, const std::string& payload) {
    std::string frame;
    const auto putU32 = [&frame](std::uint32_t v) {
      frame.push_back(static_cast<char>(v & 0xff));
      frame.push_back(static_cast<char>((v >> 8) & 0xff));
      frame.push_back(static_cast<char>((v >> 16) & 0xff));
      frame.push_back(static_cast<char>((v >> 24) & 0xff));
    };
    putU32(kFrameMagic);
    putU32(static_cast<std::uint32_t>(type));
    putU32(static_cast<std::uint32_t>(payload.size()));
    stream += frame;
    stream += payload;
  };
  LoadDesignRequest load;
  load.id = 1;
  load.tenant = "e2e";
  load.designText = baseText;
  append(FrameType::LoadDesign, serializeLoadDesign(load));
  std::uint64_t id = 2;
  for (const ScheduledRequest& request : schedule) {
    switch (request.kind) {
      case ScheduledRequest::Kind::Eco: {
        EcoDeltaRequest eco;
        eco.id = id;
        eco.tenant = "e2e";
        eco.ops = request.ops;
        append(FrameType::EcoDelta, serializeEcoDelta(eco));
        break;
      }
      case ScheduledRequest::Kind::Commit:
      case ScheduledRequest::Kind::Rollback: {
        TenantRequest tenant;
        tenant.id = id;
        tenant.tenant = "e2e";
        append(request.kind == ScheduledRequest::Kind::Commit
                   ? FrameType::Commit
                   : FrameType::Rollback,
               serializeTenantRequest(tenant));
        break;
      }
    }
    ++id;
  }
  ShutdownRequest shutdown;
  shutdown.id = id;
  shutdown.scope = "daemon";
  append(FrameType::Shutdown, serializeShutdown(shutdown));
  {
    std::ofstream out(dir / "requests.bin", std::ios::binary);
    out.write(stream.data(), static_cast<std::streamsize>(stream.size()));
  }
  ASSERT_TRUE(runCommand(serveBin + " --stdio < " +
                         shellQuote((dir / "requests.bin").string()) + " > " +
                         shellQuote((dir / "responses.bin").string()) +
                         " 2> /dev/null"));

  std::ifstream in(dir / "responses.bin", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  ASSERT_FALSE(reader.corrupted());
  std::vector<std::uint64_t> serveHashes;
  for (FrameReader::Frame& frame : reader.take()) {
    ASSERT_EQ(FrameType::Response, frame.type);
    ServeResponse response;
    ASSERT_TRUE(parseServeResponse(frame.payload, &response));
    if (response.status == ServeStatus::Bye) continue;
    ASSERT_TRUE(serveStatusOk(response.status)) << response.error;
    serveHashes.push_back(response.hash);
  }

  ASSERT_EQ(cliHashes.size(), serveHashes.size());
  for (std::size_t k = 0; k < cliHashes.size(); ++k) {
    EXPECT_EQ(cliHashes[k], serveHashes[k])
        << "daemon diverged from mclg_cli at request " << k;
  }
  fs::remove_all(dir);
}

#endif  // MCLG_SERVE_BIN && MCLG_CLI_BIN

}  // namespace
}  // namespace mclg
