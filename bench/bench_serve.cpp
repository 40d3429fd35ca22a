// Resident-daemon vs process-per-request serving bench (docs/SERVE.md).
//
// The point of mclg_serve is that a design loads (and fully legalizes)
// once, then every ECO request reuses the resident DB — no process spawn,
// no 16k-cell design parse, no output re-write per request. This bench
// quantifies that claim on one design and asserts the two modes agree
// byte-for-byte:
//
//  * `serve_request_seconds`  — mean wall clock per EcoDelta request
//    through a real ServeServer connection (length-prefixed frames over a
//    socketpair, the exact code path `mclg_serve --stdio` runs);
//  * `spawn_request_seconds`  — mean wall clock per request for the
//    process-per-request equivalent: write the edited design, fork/exec
//    `mclg_cli legalize --eco-from <snapshot>`, reload the output;
//  * `resident_speedup`       — spawn / serve (printed, not gated; the
//    last recorded ratio is in docs/SERVE.md);
//  * `serve.identical`        — every request's placement hash matches
//    between the two modes; the bench exits 1 when it does not.
//
// The mclg_cli binary is found next to this bench's own build tree
// (<build>/tools/mclg_cli); set MCLG_CLI to override. Timings are
// best-of-MCLG_BENCH_REPS (default 3); MCLG_BENCH_SCALE scales the cell
// count (default 16000 cells).

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "flow/serve/serve_protocol.hpp"
#include "flow/serve/serve_server.hpp"
#include "gen/benchmark_gen.hpp"
#include "parsers/simple_format.hpp"
#include "util/timer.hpp"

namespace {

using namespace mclg;

constexpr int kRequests = 10;
constexpr int kOpsPerRequest = 3;

int repsFromEnv() {
  if (const char* env = std::getenv("MCLG_BENCH_REPS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

std::string cliPath(const char* argv0) {
  if (const char* env = std::getenv("MCLG_CLI")) return env;
  const std::filesystem::path self(argv0);
  return (self.parent_path().parent_path() / "tools" / "mclg_cli").string();
}

/// 0/2 (legal / legal-after-degradation) both count as success — the same
/// outcomes serveStatusOk() accepts on the resident side.
bool runCli(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return false;
  const int code = WEXITSTATUS(rc);
  return code == 0 || code == 2;
}

std::vector<CellId> movableCells(const Design& design) {
  std::vector<CellId> out;
  for (CellId c = 0; c < design.numCells(); ++c) {
    if (!design.cells[c].fixed) out.push_back(c);
  }
  return out;
}

/// The fixed request schedule, kRequests x kOpsPerRequest moves. Each op
/// nudges a cell a few sites away from its legalized position — the ECO
/// shape (timing fix, local resize ripple) the incremental driver is built
/// for; `legal` is the shared post-legalization placement both modes start
/// from. Both modes replay exactly this, committing after every request.
std::vector<std::vector<EcoOp>> buildSchedule(const Design& legal) {
  const std::vector<CellId> movable = movableCells(legal);
  std::vector<std::vector<EcoOp>> out;
  for (int k = 0; k < kRequests; ++k) {
    std::vector<EcoOp> ops;
    for (int i = 0; i < kOpsPerRequest; ++i) {
      const CellId c = movable[static_cast<std::size_t>(k * 131 + i * 17) %
                               movable.size()];
      const Cell& cell = legal.cells[c];
      const double dx = static_cast<double>((k * 37 + i * 101) % 13 - 6);
      EcoOp op;
      op.kind = EcoOp::Kind::Move;
      op.cell = c;
      op.gpX = std::clamp(static_cast<double>(cell.x) + dx, 0.0,
                          static_cast<double>(legal.numSitesX - 1));
      op.gpY = static_cast<double>(cell.y);
      ops.push_back(op);
    }
    out.push_back(std::move(ops));
  }
  return out;
}

void applyMoves(Design& design, const std::vector<EcoOp>& ops) {
  for (const EcoOp& op : ops) {
    design.cells[op.cell].gpX = op.gpX;
    design.cells[op.cell].gpY = op.gpY;
  }
  design.invalidateCaches();
}

/// Minimal frame client over a socketpair served by a real ServeServer
/// connection loop — the identical code path `mclg_serve --stdio` runs.
class ResidentClient {
 public:
  explicit ResidentClient(ServeServer& server) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      std::perror("bench_serve: socketpair");
      std::exit(1);
    }
    fd_ = fds[0];
    const int serverFd = fds[1];
    thread_ = std::thread([&server, serverFd] {
      server.serveConnection(serverFd, serverFd);
      ::close(serverFd);
    });
  }
  ~ResidentClient() {
    if (fd_ >= 0) ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  ServeResponse roundTrip(FrameType type, const std::string& payload) {
    ServeResponse response;
    if (!writeFrame(fd_, type, payload)) {
      std::fprintf(stderr, "bench_serve: writeFrame failed\n");
      std::exit(1);
    }
    char buffer[1 << 16];
    while (true) {
      for (FrameReader::Frame& frame : reader_.take()) {
        if (frame.type != FrameType::Response ||
            !parseServeResponse(frame.payload, &response)) {
          std::fprintf(stderr, "bench_serve: bad response frame\n");
          std::exit(1);
        }
        return response;
      }
      const ssize_t n = ::read(fd_, buffer, sizeof buffer);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || reader_.corrupted()) {
        std::fprintf(stderr, "bench_serve: connection lost\n");
        std::exit(1);
      }
      reader_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::thread thread_;
  FrameReader reader_;
};

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  const int cells = static_cast<int>(16000 * bench::scaleFromEnv(1.0));
  const int reps = repsFromEnv();
  const std::string cli = cliPath(argv[0]);
  if (!std::filesystem::exists(cli)) {
    std::fprintf(stderr, "bench_serve: mclg_cli not found at %s "
                 "(set MCLG_CLI)\n", cli.c_str());
    return 1;
  }

  char dirTemplate[] = "/tmp/mclg_bench_serve.XXXXXX";
  const char* dir = mkdtemp(dirTemplate);
  if (dir == nullptr) {
    std::fprintf(stderr, "bench_serve: mkdtemp failed\n");
    return 1;
  }
  const std::filesystem::path work(dir);

  GenSpec spec;
  spec.name = "serve_bench";
  spec.cellsPerHeight = {cells * 85 / 100, cells * 9 / 100, cells * 4 / 100,
                         cells * 2 / 100};
  spec.density = 0.55;
  spec.numFences = 2;
  spec.seed = 9100;
  const Design base = generate(spec);
  const std::string baseText = writeSimpleFormat(base);
  const std::string basePath = (work / "base.mclg").string();
  {
    std::ofstream out(basePath);
    out << baseText;
  }

  std::printf("=== resident daemon vs process-per-request ===\n");
  std::printf("cells=%d requests=%d reps=%d cli=%s\n", base.numCells(),
              kRequests, reps, cli.c_str());

  // --- Process-per-request reference ---------------------------------------
  // One full legalize up front (both modes pay it once), then per request:
  // apply the GP edits, write the edited design, spawn
  // `mclg_cli legalize --eco-from <snapshot>`, reload the output. Every
  // request commits — the output becomes the next request's snapshot, the
  // same session shape the resident side runs with EcoDelta + Commit.
  const std::string legalPath = (work / "legal.mclg").string();
  Timer spawnLegalizeTimer;
  if (!runCli(cli + " legalize --in '" + basePath + "' --out '" + legalPath +
              "' > /dev/null 2>&1")) {
    std::fprintf(stderr, "bench_serve: initial CLI legalize failed\n");
    return 1;
  }
  const double spawnLegalizeSeconds = spawnLegalizeTimer.seconds();
  auto legal = loadDesign(legalPath);
  if (!legal) {
    std::fprintf(stderr, "bench_serve: cannot reload %s\n", legalPath.c_str());
    return 1;
  }
  const auto schedule = buildSchedule(*legal);

  std::vector<std::uint64_t> spawnHashes;
  double spawnSeconds = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    Design current = *legal;
    std::string snapPath = legalPath;
    Timer timer;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      applyMoves(current, schedule[k]);
      const std::string editedPath =
          (work / ("edited" + std::to_string(k) + ".mclg")).string();
      const std::string outPath =
          (work / ("out" + std::to_string(k) + ".mclg")).string();
      if (!saveDesign(current, editedPath) ||
          !runCli(cli + " legalize --in '" + editedPath + "' --eco-from '" +
                  snapPath + "' --out '" + outPath + "' > /dev/null 2>&1")) {
        std::fprintf(stderr, "bench_serve: CLI eco request %zu failed\n", k);
        return 1;
      }
      auto out = loadDesign(outPath);
      if (!out) {
        std::fprintf(stderr, "bench_serve: cannot reload %s\n",
                     outPath.c_str());
        return 1;
      }
      current = std::move(*out);
      snapPath = outPath;  // commit: this output is the next snapshot
      if (rep == 0) spawnHashes.push_back(placementHash(current));
    }
    spawnSeconds = std::min(spawnSeconds, timer.seconds());
  }
  std::printf("process-per-request %.3fs (%.2f ms/request; initial legalize "
              "%.3fs)\n", spawnSeconds, 1e3 * spawnSeconds / kRequests,
              spawnLegalizeSeconds);

  // --- Resident daemon ------------------------------------------------------
  // Load once through a real server connection, then stream the same
  // requests as frames, committing after each one. Each rep loads a fresh
  // tenant (the initial legalize is not part of the per-request timing), so
  // every rep replays the identical request stream against identical state.
  ServeServer server{ServeConfig{}};
  ResidentClient client(server);

  std::vector<std::uint64_t> serveHashes;
  double serveSeconds = 1e18;
  double residentLoadSeconds = 0.0;
  std::uint64_t id = 1;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string tenant = "bench" + std::to_string(rep);
    LoadDesignRequest load;
    load.id = id++;
    load.tenant = tenant;
    load.designText = baseText;
    Timer residentLoadTimer;
    const ServeResponse loaded =
        client.roundTrip(FrameType::LoadDesign, serializeLoadDesign(load));
    if (rep == 0) residentLoadSeconds = residentLoadTimer.seconds();
    if (!serveStatusOk(loaded.status)) {
      std::fprintf(stderr, "bench_serve: LoadDesign failed: %s\n",
                   loaded.error.c_str());
      return 1;
    }
    Timer timer;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      EcoDeltaRequest eco;
      eco.id = id++;
      eco.tenant = tenant;
      eco.ops = schedule[k];
      const ServeResponse response =
          client.roundTrip(FrameType::EcoDelta, serializeEcoDelta(eco));
      if (!serveStatusOk(response.status)) {
        std::fprintf(stderr, "bench_serve: EcoDelta %zu failed: %s\n", k,
                     response.error.c_str());
        return 1;
      }
      TenantRequest commit;
      commit.id = id++;
      commit.tenant = tenant;
      const ServeResponse committed = client.roundTrip(
          FrameType::Commit, serializeTenantRequest(commit));
      if (!serveStatusOk(committed.status)) {
        std::fprintf(stderr, "bench_serve: Commit %zu failed\n", k);
        return 1;
      }
      if (rep == 0) serveHashes.push_back(response.hash);
    }
    serveSeconds = std::min(serveSeconds, timer.seconds());
  }
  std::printf("resident            %.3fs (%.2f ms/request; load %.3fs)\n",
              serveSeconds, 1e3 * serveSeconds / kRequests,
              residentLoadSeconds);

  const double speedup = serveSeconds > 0 ? spawnSeconds / serveSeconds : 0.0;
  const bool identical = serveHashes == spawnHashes;
  std::printf("resident speedup: %.2fx; identical to CLI runs: %d\n", speedup,
              identical);

  std::vector<std::pair<std::string, double>> values;
  values.emplace_back("cells", static_cast<double>(base.numCells()));
  values.emplace_back("requests", static_cast<double>(kRequests));
  values.emplace_back("reps", static_cast<double>(reps));
  values.emplace_back("serve_seconds", serveSeconds);
  values.emplace_back("spawn_seconds", spawnSeconds);
  values.emplace_back("serve_request_seconds", serveSeconds / kRequests);
  values.emplace_back("spawn_request_seconds", spawnSeconds / kRequests);
  values.emplace_back("resident_load_seconds", residentLoadSeconds);
  values.emplace_back("spawn_legalize_seconds", spawnLegalizeSeconds);
  values.emplace_back("resident_speedup", speedup);
  values.emplace_back("serve.identical", identical ? 1.0 : 0.0);
  bench::maybeWriteBenchReport("bench_serve", values);

  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return identical ? 0 : 1;
}
