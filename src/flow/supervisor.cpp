#include "flow/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/batch_ledger.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace_merge.hpp"
#include "util/executor/executor.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace mclg {
namespace {

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void bumpCounter(const std::string& name, long long delta = 1) {
  if (obs::metricsEnabled()) obs::counter(name).add(delta);
}

/// The fd number workers are told to write frames to. dup2'd over in the
/// child between fork and exec, which also clears FD_CLOEXEC.
constexpr int kWorkerFd = 3;

// ---- Worker side -----------------------------------------------------------

/// Die by `sig` with the *default* disposition, bypassing any handler a
/// sanitizer runtime installed — the supervisor must observe a genuine
/// signal death, not an ASan exit code.
[[noreturn]] void dieBySignal(int sig) {
  std::signal(sig, SIG_DFL);
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, sig);
  sigprocmask(SIG_UNBLOCK, &set, nullptr);
  ::raise(sig);
  _exit(126);  // unreachable unless the signal was uncatchably blocked
}

[[noreturn]] void hangIgnoringSigterm() {
  std::signal(SIGTERM, SIG_IGN);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

std::string selfExecutablePath(const std::string& fallback) {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (len <= 0) return fallback;
  buffer[len] = '\0';
  return std::string(buffer);
}

bool splitFaultSpec(const std::string& spec, FaultSpecParts* parts) {
  const auto first = spec.find(':');
  const auto second = first == std::string::npos
                          ? std::string::npos
                          : spec.find(':', first + 1);
  if (first == 0 || second == std::string::npos) return false;
  const std::string mode = spec.substr(first + 1, second - first - 1);
  const std::string count = spec.substr(second + 1);
  if (mode != "segv" && mode != "abort" && mode != "kill" && mode != "hang" &&
      mode != "degrade") {
    return false;
  }
  if (count.empty() || count.size() > 9 ||
      count.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  parts->design = spec.substr(0, first);
  parts->mode = mode;
  parts->count = std::stoi(count);
  return parts->count > 0;
}

int supervisorWorkerMain(int argc, char** argv) {
  using enum FlagKind;
  static const FlagSpec kWorkerFlags[] = {
      {"--worker-input", Text}, {"--worker-output", Text},
      {"--worker-name", Text}, {"--worker-fd", Integer},
      {"--worker-attempt", Integer}, {"--preset", Text},
      {"--threads", Integer}, {"--scores", Switch},
      {"--worker-telemetry-ms", Integer}, {"--worker-trace", Switch},
      {"--worker-fault", Text},
  };
  const auto flags = Flags::parse("worker", kWorkerFlags, argc, argv, 2);
  if (!flags) return static_cast<int>(GuardExitCode::Usage);
  const auto input = flags->text("--worker-input");
  if (!input) {
    std::fprintf(stderr, "worker: missing --worker-input\n");
    return static_cast<int>(GuardExitCode::Usage);
  }
  const std::string name =
      flags->text("--worker-name").value_or(manifestNameOf(*input));
  const int fd = static_cast<int>(flags->integer("--worker-fd", -1));
  const int attempt = static_cast<int>(flags->integer("--worker-attempt", 0));
  const std::string presetName = flags->text("--preset").value_or("contest");
  const int threads =
      std::max(1, static_cast<int>(flags->integer("--threads", 1)));
  const int telemetryMs =
      static_cast<int>(flags->integer("--worker-telemetry-ms", 0));
  const bool trace = flags->has("--worker-trace");

  auto preset = PipelineConfig::preset(presetName);
  if (!preset) {
    std::fprintf(stderr, "worker: unknown preset '%s'\n", presetName.c_str());
    return static_cast<int>(GuardExitCode::Usage);
  }
  BatchRunConfig config;
  config.pipeline = std::move(*preset);
  config.threadsPerDesign = threads;
  config.evaluateScores = flags->has("--scores");

  // Deterministic fault injection (see supervisor.hpp). Crash modes fire
  // before the pipeline so the death is abrupt; `degrade` arms the guard's
  // FaultPlan instead so the run completes via skip-after-rollback.
  for (const std::string& spec : flags->values("--worker-fault")) {
    FaultSpecParts parts;
    if (!splitFaultSpec(spec, &parts)) {
      std::fprintf(stderr, "worker: bad --worker-fault '%s'\n", spec.c_str());
      return static_cast<int>(GuardExitCode::Usage);
    }
    if (parts.design != name || attempt >= parts.count) continue;
    if (parts.mode == "segv") dieBySignal(SIGSEGV);
    if (parts.mode == "abort") dieBySignal(SIGABRT);
    if (parts.mode == "kill") dieBySignal(SIGKILL);
    if (parts.mode == "hang") hangIgnoringSigterm();
    config.pipeline.guard.enabled = true;  // degrade
    config.pipeline.guard.maxAttempts = 2;
    config.pipeline.guard.faults.add(PipelineStage::MaxDisp,
                                     FaultKind::StageThrow, 0);
    config.pipeline.guard.faults.add(PipelineStage::MaxDisp,
                                     FaultKind::StageThrow, 1);
  }

  // Metrics populate the streamed run report's metrics block.
  obs::setMetricsEnabled(true);
  obs::metricsReset();
  if (trace) {
    obs::setTracingEnabled(true);
    obs::traceReset();
  }

  BatchManifestItem item;
  item.name = name;
  item.inputPath = *input;
  item.outputPath = flags->text("--worker-output").value_or("");

  // Telemetry stream: heartbeats + metric deltas from the sampler thread.
  // The sampler writes frames concurrently with the compute thread but is
  // the pipe's ONLY writer until stop() joins it (the final beat and the
  // Result/Report frames below then come from this thread), so frames
  // never interleave. A hang fault (above) fires before the sampler
  // starts, so a hung worker is genuinely silent — exactly the signal the
  // supervisor's stall detection keys on.
  obs::MetricsSampler sampler;
  if (fd >= 0 && telemetryMs > 0) {
    obs::SamplerConfig samplerConfig;
    samplerConfig.intervalMs = telemetryMs;
    samplerConfig.preSample = [] {
      if (Executor* executor = Executor::globalIfCreated()) {
        executor->sampleGauges();
      }
    };
    samplerConfig.emit = [fd](const obs::TelemetrySample& sample) {
      WorkerHeartbeat heartbeat;
      heartbeat.pid = static_cast<int>(::getpid());
      heartbeat.sequence = sample.sequence;
      heartbeat.phase = sample.phase;
      heartbeat.wallSeconds = sample.wallSeconds;
      heartbeat.cpuSeconds = sample.cpuSeconds;
      heartbeat.rssKb = sample.rssKb;
      writeFrame(fd, FrameType::Heartbeat,
                 serializeWorkerHeartbeat(heartbeat));
      if (!sample.metricsDelta.empty()) {
        writeFrame(fd, FrameType::MetricsDelta, sample.metricsDelta);
      }
    };
    sampler.start(std::move(samplerConfig));
    sampler.setPhase("legalize");
  }

  const BatchDesignResult result = runBatchItem(item, config);
  sampler.setPhase("report");
  // Stop before writing the final frames: the final delta brings the
  // supervisor's counter fold exactly to this report's values, and the fd
  // has a single writer again.
  sampler.stop();

  if (fd >= 0 && trace) {
    writeFrame(fd, FrameType::TraceChunk, obs::serializeTraceChunk());
  }
  if (fd >= 0) {
    WorkerResult wire;
    wire.status = result.status;
    wire.seconds = result.seconds;
    wire.placementHash = result.placementHash;
    wire.score = result.score;
    wire.numCells = result.numCells;
    wire.error = result.error;
    writeFrame(fd, FrameType::Result, serializeWorkerResult(wire));
    obs::RunProvenance provenance;
    provenance.design = result.name;
    provenance.numCells = result.numCells;
    provenance.preset = presetName;
    provenance.threads = threads;
    provenance.guardEnabled = config.pipeline.guard.enabled;
    writeFrame(fd, FrameType::Report,
               obs::renderRunReport(provenance, result.stats, nullptr,
                                    /*includeMetrics=*/true));
    ::close(fd);
  }
  return workerStatusToExit(result.status);
}

// ---- Supervisor side -------------------------------------------------------

namespace {

struct LiveWorker {
  int item = -1;       ///< manifest index
  pid_t pid = -1;
  int fd = -1;         ///< pipe read end (nonblocking)
  FrameReader reader;
  /// Result/Report frames held back for resolveOutcome at reap time;
  /// telemetry frames (Heartbeat/MetricsDelta/TraceChunk) are consumed
  /// live after every drain and never land here.
  std::vector<FrameReader::Frame> finalFrames;
  double killDeadline = 0.0;   ///< SIGTERM at this time; 0 = no timeout
  double graceDeadline = 0.0;  ///< SIGKILL at this time; 0 = no TERM sent yet
  bool timedOut = false;
  bool eof = false;
};

struct DesignProgress {
  int attempts = 0;
  double readyAt = 0.0;  ///< backoff: do not respawn before this time
  bool queued = true;
  bool done = false;
};

std::vector<std::string> buildWorkerArgv(const SupervisorConfig& config,
                                         const BatchManifestItem& item,
                                         int attempt) {
  std::vector<std::string> argv = config.workerCommand;
  argv.push_back("--worker-input");
  argv.push_back(item.inputPath);
  if (!item.outputPath.empty()) {
    argv.push_back("--worker-output");
    argv.push_back(item.outputPath);
  }
  argv.push_back("--worker-name");
  argv.push_back(item.name);
  argv.push_back("--worker-fd");
  argv.push_back(std::to_string(kWorkerFd));
  argv.push_back("--worker-attempt");
  argv.push_back(std::to_string(attempt));
  argv.push_back("--preset");
  argv.push_back(config.preset);
  argv.push_back("--threads");
  argv.push_back(std::to_string(std::max(1, config.threadsPerDesign)));
  if (config.evaluateScores) argv.push_back("--scores");
  if (config.telemetrySampleMs > 0) {
    argv.push_back("--worker-telemetry-ms");
    argv.push_back(std::to_string(config.telemetrySampleMs));
  }
  if (config.streamTrace) argv.push_back("--worker-trace");
  argv.insert(argv.end(), config.extraWorkerArgs.begin(),
              config.extraWorkerArgs.end());
  return argv;
}

/// fork/exec one worker. Returns false (with *error set) when the process
/// could not even be started; exec failures inside the child surface as
/// exit code 126 (-> WorkerStatus::Exception, retryable).
bool spawnWorker(const SupervisorConfig& config, const BatchManifestItem& item,
                 int attempt, LiveWorker* worker, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  // argv must be materialized before fork: only async-signal-safe calls are
  // allowed in the child of a (potentially multithreaded) parent.
  const std::vector<std::string> argvStrings =
      buildWorkerArgv(config, item, attempt);
  std::vector<char*> argv;
  argv.reserve(argvStrings.size() + 1);
  for (const std::string& arg : argvStrings) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: move the pipe write end onto the advertised fd (dup2 clears
    // FD_CLOEXEC) and exec. Everything else is O_CLOEXEC and vanishes.
    if (fds[1] == kWorkerFd) {
      ::fcntl(fds[1], F_SETFD, 0);
    } else {
      if (::dup2(fds[1], kWorkerFd) < 0) _exit(126);
      ::close(fds[1]);
    }
    ::execv(argv[0], argv.data());
    _exit(126);  // exec failed; parent maps this to a retryable Exception
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  worker->pid = pid;
  worker->fd = fds[0];
  worker->timedOut = false;
  worker->eof = false;
  worker->reader = FrameReader();
  worker->killDeadline = config.designTimeoutSeconds > 0.0
                             ? monotonicSeconds() + config.designTimeoutSeconds
                             : 0.0;
  worker->graceDeadline = 0.0;
  return true;
}

/// Drain whatever the worker pipe currently holds. Returns true at EOF.
bool drainWorkerPipe(LiveWorker& worker) {
  char buffer[16384];
  for (;;) {
    const ssize_t got = ::read(worker.fd, buffer, sizeof buffer);
    if (got > 0) {
      worker.reader.feed(buffer, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) return true;
    if (errno == EINTR) continue;
    return false;  // EAGAIN: drained for now
  }
}

/// Merge worker frames + wait status into the design's result. Returns the
/// final WorkerStatus.
WorkerStatus resolveOutcome(const LiveWorker& worker, int waitStatus,
                            const std::vector<FrameReader::Frame>& frames,
                            bool readerCorrupted, std::size_t pendingBytes,
                            BatchDesignResult* result) {
  bool sawResult = false;
  WorkerResult wire;
  for (const auto& frame : frames) {
    if (frame.type == FrameType::Result) {
      sawResult = parseWorkerResult(frame.payload, &wire) || sawResult;
    } else if (frame.type == FrameType::Report) {
      result->reportJson = frame.payload;
    }
  }
  if (sawResult) {
    result->seconds = wire.seconds;
    result->placementHash = wire.placementHash;
    result->score = wire.score;
    result->numCells = wire.numCells;
    result->error = wire.error;
  }

  if (worker.timedOut) {
    result->lastSignal =
        WIFSIGNALED(waitStatus) ? WTERMSIG(waitStatus) : SIGKILL;
    result->error = "timed out";
    return WorkerStatus::Timeout;
  }
  if (WIFSIGNALED(waitStatus)) {
    const int sig = WTERMSIG(waitStatus);
    result->lastSignal = sig;
    result->error = std::string("killed by signal ") + std::to_string(sig) +
                    " (" + strsignal(sig) + ")";
    return WorkerStatus::Crashed;
  }
  const int exitCode = WIFEXITED(waitStatus) ? WEXITSTATUS(waitStatus) : 126;
  const WorkerStatus exitStatus = workerStatusFromExit(exitCode);
  if (readerCorrupted || pendingBytes > 0 ||
      (!sawResult && exitStatus == WorkerStatus::Ok)) {
    result->error = readerCorrupted ? "corrupted worker frame stream"
                                    : "worker exited without a result frame";
    return WorkerStatus::Protocol;
  }
  if (!sawResult) {
    result->error = "worker exited " + std::to_string(exitCode) +
                    " without a result frame";
  }
  // Prefer the worker's own (finer-grained) status when the frame agrees
  // with the exit-code family; fall back to the exit code otherwise.
  if (sawResult && workerStatusToExit(wire.status) == exitCode) {
    return wire.status;
  }
  return exitStatus;
}

}  // namespace

std::vector<BatchDesignResult> runSupervisedManifest(
    const std::vector<BatchManifestItem>& items,
    const SupervisorConfig& configIn) {
  SupervisorConfig config = configIn;
  if (config.workerCommand.empty()) {
    config.workerCommand = {selfExecutablePath("mclg_batch"), "--worker"};
  }
  const int cap =
      config.maxConcurrent > 0
          ? config.maxConcurrent
          : std::max(1u, std::thread::hardware_concurrency());
  const double grace = std::max(0.05, config.killGraceSeconds);

  std::vector<BatchDesignResult> results(items.size());
  std::vector<DesignProgress> progress(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    results[i].name = items[i].name;
  }
  if (items.empty()) return results;

  // Telemetry fold: an injected ledger when the caller wants to read it
  // (mclg_batch --live-status), a private one otherwise — stall detection
  // runs either way.
  obs::BatchLedger localLedger;
  obs::BatchLedger* const ledger =
      config.ledger != nullptr ? config.ledger : &localLedger;
  ledger->setTotalDesigns(static_cast<int>(items.size()));
  const double stallThreshold =
      config.telemetrySampleMs > 0
          ? (config.stallThresholdSeconds > 0.0
                 ? config.stallThresholdSeconds
                 : std::max(2.0, 20.0 * config.telemetrySampleMs / 1000.0))
          : 0.0;
  double nextStatusAt = 0.0;

  std::vector<LiveWorker> live;
  int doneCount = 0;

  // Consume telemetry frames as they arrive; hold Result/Report back for
  // resolveOutcome at reap time.
  const auto processTelemetry = [&](LiveWorker& worker) {
    const std::string& design =
        items[static_cast<std::size_t>(worker.item)].name;
    for (auto& frame : worker.reader.take()) {
      switch (frame.type) {
        case FrameType::Heartbeat: {
          WorkerHeartbeat heartbeat;
          if (parseWorkerHeartbeat(frame.payload, &heartbeat)) {
            ledger->heartbeat(design, heartbeat.sequence, heartbeat.phase,
                              heartbeat.wallSeconds, heartbeat.cpuSeconds,
                              heartbeat.rssKb, monotonicSeconds());
          } else {
            bumpCounter("supervisor.telemetry.malformed");
          }
          break;
        }
        case FrameType::MetricsDelta:
          if (!ledger->metricsDelta(design, frame.payload)) {
            bumpCounter("supervisor.telemetry.malformed");
          }
          break;
        case FrameType::TraceChunk:
          bumpCounter("supervisor.trace_chunks");
          if (config.traceMerger != nullptr &&
              !config.traceMerger->addChunk(static_cast<int>(worker.pid),
                                            frame.payload)) {
            bumpCounter("supervisor.trace_chunks.dropped");
          }
          break;
        default:
          worker.finalFrames.push_back(std::move(frame));
          break;
      }
    }
  };

  const auto finishDesign = [&](int item, WorkerStatus status) {
    BatchDesignResult& result = results[static_cast<std::size_t>(item)];
    result.status = status;
    result.ok = workerStatusOk(status);
    result.attempts = progress[static_cast<std::size_t>(item)].attempts;
    progress[static_cast<std::size_t>(item)].done = true;
    ++doneCount;
    if (!workerStatusOk(status) && workerStatusRetryable(status)) {
      bumpCounter("supervisor.exhausted");
    }
  };

  const auto scheduleRetryOrFinish = [&](int item, WorkerStatus status) {
    DesignProgress& p = progress[static_cast<std::size_t>(item)];
    if (workerStatusRetryable(status) && p.attempts <= config.maxRetries) {
      const int backoffShift = std::min(p.attempts - 1, 8);
      const double delay =
          std::min(30.0, static_cast<double>(config.backoffMs) *
                             static_cast<double>(1 << backoffShift) / 1000.0);
      p.readyAt = monotonicSeconds() + delay;
      p.queued = true;
      results[static_cast<std::size_t>(item)].status = status;
      bumpCounter("supervisor.retries");
      return;
    }
    finishDesign(item, status);
  };

  const auto reapWorker = [&](std::size_t slot) {
    LiveWorker worker = std::move(live[slot]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
    ::close(worker.fd);
    int waitStatus = 0;
    // The pipe reached EOF (or the worker was SIGKILLed): the process has
    // exited or is mid-exit, so a blocking waitpid is bounded.
    while (::waitpid(worker.pid, &waitStatus, 0) < 0 && errno == EINTR) {
    }
    BatchDesignResult& result = results[static_cast<std::size_t>(worker.item)];
    processTelemetry(worker);
    const auto frames = std::move(worker.finalFrames);
    const WorkerStatus status =
        resolveOutcome(worker, waitStatus, frames, worker.reader.corrupted(),
                       worker.reader.pendingBytes(), &result);
    if (status == WorkerStatus::Crashed) {
      bumpCounter("supervisor.crashes");
      bumpCounter("supervisor.crash.signal." +
                  std::to_string(result.lastSignal));
    }
    if (status == WorkerStatus::Timeout) bumpCounter("supervisor.timeouts");
    {
      const DesignProgress& p = progress[static_cast<std::size_t>(worker.item)];
      obs::BatchLedger::DesignOutcome outcome;
      outcome.status = workerStatusName(status);
      outcome.ok = workerStatusOk(status);
      outcome.retrying =
          workerStatusRetryable(status) && p.attempts <= config.maxRetries;
      outcome.seconds = result.seconds;
      outcome.cells = result.numCells;
      outcome.score = result.score;
      outcome.attempt = p.attempts;
      ledger->designFinished(items[static_cast<std::size_t>(worker.item)].name,
                             outcome, monotonicSeconds());
    }
    scheduleRetryOrFinish(worker.item, status);
  };

  while (doneCount < static_cast<int>(items.size())) {
    // Admit queued designs whose backoff has elapsed.
    const double now = monotonicSeconds();
    for (std::size_t i = 0;
         i < items.size() && static_cast<int>(live.size()) < cap; ++i) {
      DesignProgress& p = progress[i];
      if (!p.queued || p.done || p.readyAt > now) continue;
      p.queued = false;
      ++p.attempts;
      bumpCounter("supervisor.spawns");
      if (p.attempts > 1) bumpCounter("supervisor.restarts");
      LiveWorker worker;
      worker.item = static_cast<int>(i);
      std::string spawnError;
      if (!spawnWorker(config, items[i], p.attempts - 1, &worker,
                       &spawnError)) {
        results[i].error = spawnError;
        obs::BatchLedger::DesignOutcome outcome;
        outcome.status = workerStatusName(WorkerStatus::SpawnFailed);
        outcome.retrying = p.attempts <= config.maxRetries;
        outcome.attempt = p.attempts;
        ledger->designFinished(items[i].name, outcome, monotonicSeconds());
        scheduleRetryOrFinish(static_cast<int>(i), WorkerStatus::SpawnFailed);
        continue;
      }
      ledger->workerStarted(items[i].name, static_cast<int>(worker.pid),
                            p.attempts, monotonicSeconds());
      if (config.streamTrace && config.traceMerger != nullptr) {
        config.traceMerger->addWorker(static_cast<int>(worker.pid),
                                      items[i].name);
      }
      live.push_back(std::move(worker));
      if (obs::metricsEnabled()) {
        obs::gauge("supervisor.workers_in_flight")
            .max(static_cast<double>(live.size()));
      }
    }

    // Throttled live progress (works during backoff lulls too).
    if (config.onStatusLine) {
      const double statusNow = monotonicSeconds();
      if (statusNow >= nextStatusAt) {
        config.onStatusLine(ledger->renderStatusLine(statusNow));
        nextStatusAt =
            statusNow + std::max(50, config.statusIntervalMs) / 1000.0;
      }
    }

    if (live.empty()) {
      // Nothing running: either everything is done, or every queued design
      // is in backoff — sleep until the earliest becomes ready.
      double wakeAt = -1.0;
      for (const DesignProgress& p : progress) {
        if (p.queued && !p.done && (wakeAt < 0.0 || p.readyAt < wakeAt)) {
          wakeAt = p.readyAt;
        }
      }
      if (wakeAt < 0.0) break;  // defensive: no work left at all
      const double sleepFor = wakeAt - monotonicSeconds();
      if (sleepFor > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(sleepFor, 0.25)));
      }
      continue;
    }

    // Poll timeout: the nearest of any worker deadline or retry wakeup,
    // capped so timeout enforcement stays responsive.
    double timeoutAt = -1.0;
    for (const LiveWorker& worker : live) {
      const double deadline = worker.graceDeadline > 0.0 ? worker.graceDeadline
                                                         : worker.killDeadline;
      if (deadline > 0.0 && (timeoutAt < 0.0 || deadline < timeoutAt)) {
        timeoutAt = deadline;
      }
    }
    for (const DesignProgress& p : progress) {
      if (p.queued && !p.done && (timeoutAt < 0.0 || p.readyAt < timeoutAt)) {
        timeoutAt = p.readyAt;
      }
    }
    int pollMs = 250;
    if (timeoutAt > 0.0) {
      const double delta = timeoutAt - monotonicSeconds();
      pollMs = std::clamp(static_cast<int>(delta * 1000.0) + 1, 1, 250);
    }

    std::vector<pollfd> pollFds;
    pollFds.reserve(live.size());
    for (const LiveWorker& worker : live) {
      pollFds.push_back({worker.fd, POLLIN, 0});
    }
    const int ready = ::poll(pollFds.data(),
                             static_cast<nfds_t>(pollFds.size()), pollMs);
    if (ready < 0 && errno != EINTR) {
      // poll itself failing is unrecoverable for multiplexing; fall back to
      // a short sleep so the deadline sweep below still runs.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Read ready pipes; remember EOFs (reap below, outside the fd loop).
    for (std::size_t s = 0; s < live.size(); ++s) {
      if (ready > 0 &&
          (pollFds[s].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        live[s].eof = drainWorkerPipe(live[s]);
        // Fold telemetry the moment it lands: heartbeats must reach the
        // ledger before the stall sweep, not at reap time.
        processTelemetry(live[s]);
      }
    }
    for (std::size_t s = live.size(); s-- > 0;) {
      if (live[s].eof) reapWorker(s);
    }

    // Enforce timeouts: SIGTERM at the deadline, SIGKILL after the grace.
    const double sweep = monotonicSeconds();
    for (LiveWorker& worker : live) {
      if (worker.killDeadline > 0.0 && worker.graceDeadline == 0.0 &&
          sweep >= worker.killDeadline) {
        worker.timedOut = true;
        worker.graceDeadline = sweep + grace;
        ::kill(worker.pid, SIGTERM);
      } else if (worker.graceDeadline > 0.0 && sweep >= worker.graceDeadline) {
        worker.graceDeadline = sweep + 3600.0;  // kill once; EOF follows
        bumpCounter("supervisor.kills");
        ::kill(worker.pid, SIGKILL);
      }
    }

    // Stall sweep: a worker whose sampler thread stopped beating is hung
    // (the sampler beats even while compute is stuck), not merely slow —
    // flag it well before the wall-clock timeout escalates to SIGTERM.
    if (stallThreshold > 0.0) {
      for (const std::string& design :
           ledger->detectStalls(monotonicSeconds(), stallThreshold)) {
        MCLG_LOG_WARN() << "worker for design '" << design
                        << "' stopped heartbeating (stalled, not just slow)";
      }
    }
  }

  if (config.onStatusLine) {
    config.onStatusLine(ledger->renderStatusLine(monotonicSeconds()));
  }
  return results;
}

}  // namespace mclg
