// Process-wide persistent executor: a parallel-for over one shared queue.
//
// One worker set for the whole process, so no pipeline stage constructs
// and tears down threads of its own:
//
//  * Workers are created once (Executor::global(), lazily, hardware-sized)
//    and parked on one condition variable between uses — a stage
//    invocation borrows them instead of spawning threads.
//  * parallelForBatch distributes indices by *atomic chunked claiming*:
//    lanes grab [next, next+chunk) with one fetch_add, so there is no
//    mutex on the index handout path. The only mutex guards the one FIFO
//    of helper tasks (one per extra lane a batch asks for).
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
// completes even when all workers are busy with other batches (including
// the nested case: a batch index calling parallelForBatch).
#pragma once

#include <cstddef>
#include <memory>

#include "util/executor/function_ref.hpp"

namespace mclg {

class Executor {
 public:
  /// The process-global executor, created on first use with one worker per
  /// hardware thread (4 when that is unknown). Lives until exit.
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

  /// Monotonic activity counters (process-lifetime for global()). The same
  /// values are exported as executor.* metrics when the obs registry is
  /// enabled.
  struct Stats {
    long long steals = 0;       ///< always 0: one shared queue, no stealing
    long long chunkGrabs = 0;   ///< atomic [next, next+chunk) claims
    long long parks = 0;        ///< workers gone to sleep
    long long unparks = 0;      ///< producer-side wakeups issued
    long long batches = 0;      ///< parallelForBatch calls that went wide
  };
  Stats stats() const;

  /// Point-in-time introspection for periodic telemetry sampling
  /// (obs/sampler.hpp): helper tasks not yet taken by a worker, and
  /// workers currently parked. Both take the queue mutex — cheap at
  /// sampling rates, not for hot loops.
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
