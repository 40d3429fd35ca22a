// Process-wide persistent work-stealing executor.
//
// One worker set for the whole process, so no pipeline stage constructs
// and tears down threads of its own or hands out task indices through a
// mutex-guarded counter:
//
//  * Workers are created once (Executor::global(), lazily, hardware-sized)
//    and parked between uses — a stage invocation borrows them instead of
//    spawning threads.
//  * parallelForBatch distributes indices by *atomic chunked claiming*:
//    lanes grab [next, next+chunk) with one fetch_add, so there is no
//    mutex on the task handout path.
//  * Idle workers steal from each other's Chase-Lev deques, so whole-run
//    tasks (mclg_serve's in-flight requests) and per-stage batch helpers
//    share the same worker set without partitioning it.
//
// Determinism: parallelForBatch runs fn(i) once for every i in
// [0, count), returns only after all of them finished (barrier), and
// callers key results by index, never by executing thread. Which thread
// runs which index is scheduling noise the callers are already required to
// be (and tested to be) invariant to.
//
// Exceptions: a throwing task does not abort the batch — the remaining
// indices still run (drain), and the first exception is rethrown in the
// calling thread, preserving the stage-transaction rollback semantics.
//
// Blocking: a caller of parallelForBatch participates in its own batch and
// only waits after every index is claimed by some running lane, so a batch
// completes even when all workers are busy with other work (including the
// nested case: a whole-run task on a worker calling parallelForBatch).
#pragma once

#include <functional>
#include <memory>

#include "util/executor/function_ref.hpp"

namespace mclg {

class Executor {
 public:
  /// The process-global executor, created on first use with one worker per
  /// hardware thread (MCLG_EXECUTOR_THREADS overrides). Lives until exit.
  static Executor& global();

  /// The global executor if some caller already constructed it, else null.
  /// Telemetry samplers use this so observing an idle process doesn't
  /// spawn its worker threads.
  static Executor* globalIfCreated();

  /// A private executor (tests, benches). numWorkers < 1 is clamped to 1.
  explicit Executor(int numWorkers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int numWorkers() const;

  /// Run fn(i) for i in [0, count) on up to maxParallel lanes (the calling
  /// thread plus borrowed workers) and wait for all of them.
  /// maxParallel <= 1 or count <= 1 degenerates to inline execution.
  void parallelForBatch(int count, int maxParallel, FunctionRef<void(int)> fn);

  /// Enqueue a whole-run task (runs exactly once, on some worker).
  /// mclg_serve runs each admitted request this way
  /// (flow/serve/serve_server.cpp); completion tracking is the caller's
  /// business. Tasks should not throw: an exception that
  /// escapes one is reported on stderr and dropped by the worker (there is
  /// no caller to rethrow into), so errors the caller cares about must be
  /// captured inside the task.
  void submit(std::function<void()> task);

  /// Monotonic activity counters (process-lifetime for global()). The same
  /// values are exported as executor.* metrics when the obs registry is
  /// enabled.
  struct Stats {
    long long steals = 0;       ///< tasks taken from another worker's deque
    long long chunkGrabs = 0;   ///< atomic [next, next+chunk) claims
    long long parks = 0;        ///< workers gone to sleep
    long long unparks = 0;      ///< producer-side wakeups issued
    long long submitted = 0;    ///< whole-run tasks accepted
    long long batches = 0;      ///< parallelForBatch calls that went wide
  };
  Stats stats() const;

  /// Point-in-time introspection for periodic telemetry sampling
  /// (obs/sampler.hpp): externally submitted tasks not yet claimed, and
  /// workers currently parked. Both take the respective internal mutex —
  /// cheap at sampling rates, not for hot loops.
  std::size_t queueDepth() const;
  int parkedWorkers() const;

  /// Refresh the executor.queue_depth (high-water) and
  /// executor.parked_workers (last-sample) gauges from the live state.
  /// No-op while the metrics registry is disabled.
  void sampleGauges() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Cheap value handle to an executor, default-bound to Executor::global().
/// Stage configs carry one so tests and mclg_serve can inject a
/// private executor while production code shares the process-wide one.
/// The inline fast path lives here: numThreads <= 1 never touches (or
/// lazily constructs) the underlying executor.
class ExecutorRef {
 public:
  ExecutorRef() = default;
  explicit ExecutorRef(Executor* executor) : executor_(executor) {}

  Executor& get() const { return executor_ ? *executor_ : Executor::global(); }

  /// parallelForBatch with numThreads as the lane budget (1 = inline, no
  /// executor involvement).
  void parallelForBatch(int count, int numThreads,
                        FunctionRef<void(int)> fn) const {
    if (count <= 0) return;
    if (numThreads <= 1 || count == 1) {
      for (int i = 0; i < count; ++i) fn(i);
      return;
    }
    get().parallelForBatch(count, numThreads, fn);
  }

 private:
  Executor* executor_ = nullptr;
};

}  // namespace mclg
