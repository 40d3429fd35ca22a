// mclg_serve — resident legalization daemon (legalization-as-a-service).
//
//   mclg_serve --stdio [options]            serve one client on stdin/stdout
//   mclg_serve --socket PATH [options]      listen on a Unix domain socket
//   mclg_serve --status --socket PATH       print the daemon's status table
//
// Designs load once (LoadDesign) into resident in-memory databases; after
// that, clients stream EcoDelta / Commit / Rollback / Query frames and the
// daemon re-legalizes incrementally instead of paying a full process spawn
// plus full legalization per request. The wire protocol is the supervisor
// frame envelope (flow/worker_protocol.hpp) with the serving payloads of
// flow/serve/serve_protocol.hpp — documented normatively in
// docs/PROTOCOL.md, with a quickstart in docs/SERVE.md.
//
// options:
//   --max-inflight N     expensive requests executing at once (default 4)
//   --queue-depth N      waiting requests beyond which clients get Busy
//                        (default 16)
//   --request-budget S   wall-clock budget per request in seconds; the
//                        clock starts at admission, exhaustion answers
//                        Rejected with the tenant rolled back (default
//                        unlimited)
//   --max-threads N      cap on the per-request `threads` ask (default 4)
//   --allow-remote-shutdown
//                        honor Shutdown scope=daemon on socket
//                        connections (always honored on --stdio)
//   --telemetry-ms N     print a one-line service rollup to stderr every
//                        N milliseconds (default off)
//
// Exit status: 0 after a clean shutdown (daemon Shutdown frame or
// SIGINT/SIGTERM), 1 on usage or transport errors. An unknown flag, a
// value flag with no value, or a malformed number is a usage error raised
// before the daemon serves anything.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "flow/serve/serve_protocol.hpp"
#include "flow/serve/serve_server.hpp"
#include "legal/guard/guard.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "util/flags.hpp"

namespace {

using namespace mclg;

const char kHelp[] =
    "usage: mclg_serve --stdio | --socket PATH [options]\n"
    "       mclg_serve --status --socket PATH\n"
    "\n"
    "Resident legalization daemon: designs load once into in-memory\n"
    "databases, then clients stream ECO requests over length-prefixed\n"
    "frames (docs/PROTOCOL.md) instead of spawning a process per request.\n"
    "\n"
    "transport:\n"
    "  --stdio              serve exactly one client on stdin/stdout\n"
    "                       (daemon-scope Shutdown is always honored)\n"
    "  --socket PATH        listen on a Unix domain socket; one thread per\n"
    "                       accepted connection (PATH is unlinked first)\n"
    "  --status             client mode: connect to --socket PATH, print\n"
    "                       the per-tenant status table, exit\n"
    "\n"
    "options:\n"
    "  --max-inflight N     expensive requests (LoadDesign/EcoDelta)\n"
    "                       executing at once (default 4)\n"
    "  --queue-depth N      admitted-but-waiting requests beyond which the\n"
    "                       daemon answers Busy (default 16)\n"
    "  --request-budget S   per-request wall-clock budget in seconds,\n"
    "                       started at admission; exhaustion answers\n"
    "                       Rejected with the tenant rolled back\n"
    "                       (default 0 = unlimited)\n"
    "  --max-threads N      cap on a request's `threads` ask (default 4)\n"
    "  --allow-remote-shutdown\n"
    "                       honor Shutdown scope=daemon over the socket\n"
    "  --telemetry-ms N     one-line service rollup to stderr every N ms\n"
    "\n"
    "exit status:\n"
    "  0  clean shutdown (daemon Shutdown frame, or SIGINT/SIGTERM)\n"
    "  1  usage or transport error\n";

using enum FlagKind;

const FlagSpec kFlags[] = {
    {"--help", Switch}, {"-h", Switch}, {"--stdio", Switch},
    {"--status", Switch}, {"--allow-remote-shutdown", Switch},
    {"--socket", Text}, {"--max-inflight", Integer},
    {"--queue-depth", Integer}, {"--max-threads", Integer},
    {"--telemetry-ms", Integer}, {"--request-budget", Number},
};

volatile std::sig_atomic_t gSignaled = 0;
void onSignal(int) { gSignaled = 1; }

ServeConfig configFromFlags(const Flags& flags) {
  ServeConfig config;
  config.maxInFlight = static_cast<int>(flags.integer("--max-inflight", 4));
  config.queueDepth = static_cast<int>(flags.integer("--queue-depth", 16));
  config.requestBudgetSeconds = flags.number("--request-budget", 0.0);
  config.maxThreadsPerRequest =
      static_cast<int>(flags.integer("--max-threads", 4));
  config.allowRemoteShutdown = flags.has("--allow-remote-shutdown");
  return config;
}

int connectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listenUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket from a dead daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read Response frames off `fd` until one full frame (or EOF/corruption).
bool readOneResponse(int fd, ServeResponse* out) {
  FrameReader reader;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    reader.feed(buffer, static_cast<std::size_t>(n));
    if (reader.corrupted()) return false;
    for (FrameReader::Frame& frame : reader.take()) {
      if (frame.type != FrameType::Response) return false;
      return parseServeResponse(frame.payload, out);
    }
  }
}

// --status: one Query{key=status} round trip against a running daemon.
GuardExitCode runStatusClient(const std::string& path) {
  const int fd = connectUnix(path);
  if (fd < 0) {
    std::fprintf(stderr, "mclg_serve: cannot connect to %s: %s\n",
                 path.c_str(), std::strerror(errno));
    return GuardExitCode::Usage;
  }
  QueryRequest query;
  query.key = "status";
  ServeResponse response;
  const bool ok = writeFrame(fd, FrameType::Query, serializeQuery(query)) &&
                  readOneResponse(fd, &response) &&
                  response.status == ServeStatus::Ok;
  ::close(fd);
  if (!ok) {
    std::fprintf(stderr, "mclg_serve: status query failed%s%s\n",
                 response.error.empty() ? "" : ": ",
                 response.error.c_str());
    return GuardExitCode::Usage;
  }
  std::fputs(response.body.c_str(), stdout);
  return GuardExitCode::Legal;
}

/// Socket connections a daemon is currently serving; shutdown() on each
/// wakes their blocking reads so the accept loop can join cleanly.
class ConnectionTable {
 public:
  void add(int fd) {
    std::lock_guard<std::mutex> lock(mutex_);
    fds_.push_back(fd);
  }
  void remove(int fd) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      if (fds_[i] == fd) {
        fds_[i] = fds_.back();
        fds_.pop_back();
        break;
      }
    }
  }
  void shutdownAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  std::mutex mutex_;
  std::vector<int> fds_;
};

GuardExitCode runSocketDaemon(const std::string& path, ServeServer& server,
                              int telemetryMs) {
  const int listenFd = listenUnix(path);
  if (listenFd < 0) {
    std::fprintf(stderr, "mclg_serve: cannot listen on %s: %s\n",
                 path.c_str(), std::strerror(errno));
    return GuardExitCode::Usage;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);  // write failures surface as EPIPE returns

  obs::MetricsSampler sampler;
  if (telemetryMs > 0) {
    obs::SamplerConfig samplerConfig;
    samplerConfig.intervalMs = telemetryMs;
    samplerConfig.emit = [&server](const obs::TelemetrySample& sample) {
      if (sample.last) return;  // final beat can outlive useful output
      std::fprintf(stderr, "%s\n", server.statusLine().c_str());
    };
    sampler.start(samplerConfig);
    sampler.setPhase("serve");
  }

  std::fprintf(stderr, "[serve] listening on %s\n", path.c_str());
  ConnectionTable connections;
  std::vector<std::thread> threads;
  while (gSignaled == 0 && !server.shutdownRequested()) {
    pollfd pfd{listenFd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int clientFd = ::accept(listenFd, nullptr, nullptr);
    if (clientFd < 0) continue;
    connections.add(clientFd);
    threads.emplace_back([&server, &connections, clientFd] {
      server.serveConnection(clientFd, clientFd);
      connections.remove(clientFd);
      ::close(clientFd);
    });
  }

  connections.shutdownAll();
  for (std::thread& thread : threads) thread.join();
  sampler.stop();
  ::close(listenFd);
  ::unlink(path.c_str());
  std::fprintf(stderr, "[serve] %s\n",
               server.shutdownRequested() ? "shutdown requested, bye"
                                          : "signal received, bye");
  return GuardExitCode::Legal;
}

GuardExitCode runServe(int argc, char** argv) {
  const auto flags = Flags::parse("mclg_serve", kFlags, argc, argv, 1);
  if (!flags) {
    std::fputs("run mclg_serve --help for the flag list\n", stderr);
    return GuardExitCode::Usage;
  }
  if (flags->has("--help") || flags->has("-h")) {
    std::fputs(kHelp, stdout);
    return GuardExitCode::Legal;
  }

  const auto socketPath = flags->text("--socket");
  if (flags->has("--status")) {
    if (!socketPath) {
      std::fprintf(stderr, "mclg_serve: --status needs --socket PATH\n");
      return GuardExitCode::Usage;
    }
    return runStatusClient(*socketPath);
  }

  const bool stdio = flags->has("--stdio");
  if (stdio == socketPath.has_value()) {
    std::fprintf(stderr,
                 "mclg_serve: pick exactly one transport, --stdio or "
                 "--socket PATH (try --help)\n");
    return GuardExitCode::Usage;
  }

  ServeConfig config = configFromFlags(*flags);
  if (stdio) {
    // The stdio client owns this process; daemon shutdown is its call.
    config.allowRemoteShutdown = true;
    ServeServer server(config);
    server.serveConnection(/*inFd=*/0, /*outFd=*/1);
    return GuardExitCode::Legal;
  }

  ServeServer server(config);
  return runSocketDaemon(
      *socketPath, server,
      static_cast<int>(flags->integer("--telemetry-ms", 0)));
}

}  // namespace

int main(int argc, char** argv) {
  return static_cast<int>(runServe(argc, argv));
}
