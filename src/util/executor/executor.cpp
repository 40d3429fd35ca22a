#include "util/executor/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mclg {
namespace {

int defaultWorkerCount() {
  if (const char* env = std::getenv("MCLG_EXECUTOR_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

}  // namespace

struct Executor::Impl {
  struct TaskBase {
    virtual ~TaskBase() = default;
    virtual void run() = 0;
  };

  // ---- Chase-Lev work-stealing deque (Le et al., PPoPP'13 orderings). ----
  // One per worker; the owner pushes/pops at the bottom, thieves take from
  // the top. Grown rings are retired, not freed, so a concurrent thief can
  // finish its read of the old array.
  class Deque {
   public:
    Deque() : buffer_(new Ring(kInitialCapacity)) {}
    ~Deque() { delete buffer_.load(std::memory_order_relaxed); }

    void push(TaskBase* task) {
      const std::int64_t b = bottom_.load(std::memory_order_relaxed);
      const std::int64_t t = top_.load(std::memory_order_acquire);
      Ring* ring = buffer_.load(std::memory_order_relaxed);
      if (b - t > ring->capacity - 1) ring = grow(ring, t, b);
      ring->put(b, task);
      std::atomic_thread_fence(std::memory_order_release);
      bottom_.store(b + 1, std::memory_order_relaxed);
    }

    TaskBase* pop() {
      const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      Ring* ring = buffer_.load(std::memory_order_relaxed);
      bottom_.store(b, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      std::int64_t t = top_.load(std::memory_order_relaxed);
      TaskBase* task = nullptr;
      if (t <= b) {
        task = ring->get(b);
        if (t == b) {
          // Last element: race the thieves for it.
          if (!top_.compare_exchange_strong(t, t + 1,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
            task = nullptr;
          }
          bottom_.store(b + 1, std::memory_order_relaxed);
        }
      } else {
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return task;
    }

    TaskBase* steal() {
      std::int64_t t = top_.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_acquire);
      if (t >= b) return nullptr;
      Ring* ring = buffer_.load(std::memory_order_acquire);
      TaskBase* task = ring->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;  // lost the race; caller treats it as empty
      }
      return task;
    }

    bool maybeNonEmpty() const {
      return bottom_.load(std::memory_order_relaxed) >
             top_.load(std::memory_order_relaxed);
    }

   private:
    static constexpr std::int64_t kInitialCapacity = 64;

    struct Ring {
      explicit Ring(std::int64_t cap)
          : capacity(cap), mask(cap - 1),
            slots(new std::atomic<TaskBase*>[static_cast<std::size_t>(cap)]) {
      }
      TaskBase* get(std::int64_t i) const {
        return slots[static_cast<std::size_t>(i & mask)].load(
            std::memory_order_relaxed);
      }
      void put(std::int64_t i, TaskBase* task) {
        slots[static_cast<std::size_t>(i & mask)].store(
            task, std::memory_order_relaxed);
      }
      const std::int64_t capacity;
      const std::int64_t mask;
      std::unique_ptr<std::atomic<TaskBase*>[]> slots;
    };

    Ring* grow(Ring* old, std::int64_t top, std::int64_t bottom) {
      Ring* next = new Ring(old->capacity * 2);
      for (std::int64_t i = top; i < bottom; ++i) next->put(i, old->get(i));
      buffer_.store(next, std::memory_order_release);
      // The old ring is *retired*, not freed: a concurrent thief that
      // loaded it before the swap may still be reading a slot. It stays
      // allocated until the deque dies (the destructor frees the live ring
      // plus this list).
      retired_.emplace_back(old);
      return next;
    }

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Ring*> buffer_;
    std::vector<std::unique_ptr<Ring>> retired_;  // owner-thread only
  };

  // ---- Batch state: one per parallelForBatch call that goes wide. ----
  // Heap-shared so helper tasks that run *after* the batch drained (their
  // claim finds next >= count) can still touch it safely; the FunctionRef
  // is only invoked for claimed indices, which all precede the caller's
  // return.
  struct BatchState {
    BatchState(FunctionRef<void(int)> f, int n, int chunkSize)
        : fn(f), count(n), chunk(chunkSize) {}
    FunctionRef<void(int)> fn;
    const int count;
    const int chunk;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  // first failure, guarded by mutex
  };

  struct BatchTask : TaskBase {
    BatchTask(Impl* i, std::shared_ptr<BatchState> s)
        : impl(i), state(std::move(s)) {}
    void run() override { impl->runBatchChunks(*state); }
    Impl* impl;
    std::shared_ptr<BatchState> state;
  };

  struct FunctionTask : TaskBase {
    explicit FunctionTask(std::function<void()> f) : fn(std::move(f)) {}
    void run() override { fn(); }
    std::function<void()> fn;
  };

  struct Worker {
    Deque deque;
    std::uint64_t rngState = 0;  // xorshift for victim selection
  };

  explicit Impl(int numWorkers) {
    const int n = std::max(1, numWorkers);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.push_back(std::make_unique<Worker>());
      workers_.back()->rngState = 0x9e3779b97f4a7c15ULL * (i + 1) + 1;
    }
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { workerLoop(i); });
    }
  }

  ~Impl() {
    shutdown_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(sleepMutex_);
    }
    sleepCv_.notify_all();
    for (auto& thread : threads_) thread.join();
    // Nothing should be queued at destruction (batches join, the batch
    // driver waits for its submissions), but drain defensively.
    for (auto& worker : workers_) {
      while (TaskBase* task = worker->deque.pop()) delete task;
    }
    for (TaskBase* task : injector_) delete task;
  }

  // Each thread remembers which executor it works for, so nested
  // parallelForBatch / submit calls from inside a task use the local deque.
  static thread_local Impl* tlsOwner;
  static thread_local int tlsWorkerIndex;

  void workerLoop(int index) {
    tlsOwner = this;
    tlsWorkerIndex = index;
    Worker& self = *workers_[static_cast<std::size_t>(index)];
    for (;;) {
      // Capture the signal BEFORE scanning: any production after this point
      // bumps it, so the park predicate cannot miss it.
      const std::uint64_t seen = signal_.load(std::memory_order_acquire);
      if (TaskBase* task = findTask(self, index)) {
        try {
          task->run();
        } catch (...) {
          // Batch tasks catch internally (the first error is rethrown in
          // the calling thread); only a submit()-ed task can land here.
          // Letting it escape would std::terminate the whole process from
          // a worker thread, taking every in-flight design down — report
          // and keep the worker alive instead. The counter surfaces the
          // drop in the run report (executor.tasks.escaped_exceptions);
          // stderr alone is invisible to report consumers.
          if (obs::metricsEnabled()) {
            static obs::Counter& c =
                obs::counter("executor.tasks.escaped_exceptions");
            c.add();
          }
          std::fprintf(
              stderr,
              "mclg: uncaught exception escaped an executor task; dropped\n");
        }
        delete task;
        continue;
      }
      if (shutdown_.load(std::memory_order_acquire)) return;
      park(seen);
    }
  }

  TaskBase* findTask(Worker& self, int index) {
    if (TaskBase* task = self.deque.pop()) return task;
    // One full round over the other workers, random starting victim.
    const int n = static_cast<int>(workers_.size());
    if (n > 1) {
      self.rngState ^= self.rngState << 13;
      self.rngState ^= self.rngState >> 7;
      self.rngState ^= self.rngState << 17;
      const int start = static_cast<int>(self.rngState % static_cast<std::uint64_t>(n));
      for (int k = 0; k < n; ++k) {
        const int victim = (start + k) % n;
        if (victim == index) continue;
        if (TaskBase* task =
                workers_[static_cast<std::size_t>(victim)]->deque.steal()) {
          steals_.fetch_add(1, std::memory_order_relaxed);
          if (obs::metricsEnabled()) {
            static obs::Counter& c = obs::counter("executor.steals");
            c.add();
          }
          return task;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(injectorMutex_);
      if (!injector_.empty()) {
        TaskBase* task = injector_.front();
        injector_.pop_front();
        return task;
      }
    }
    return nullptr;
  }

  void park(std::uint64_t seen) {
    std::unique_lock<std::mutex> lock(sleepMutex_);
    if (shutdown_.load(std::memory_order_acquire) ||
        signal_.load(std::memory_order_seq_cst) != seen) {
      return;  // something arrived between the scan and here — rescan
    }
    ++sleepers_;
    parks_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsEnabled()) {
      static obs::Counter& c = obs::counter("executor.parks");
      c.add();
    }
    sleepCv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             signal_.load(std::memory_order_seq_cst) != seen;
    });
    --sleepers_;
  }

  /// Make up to `hint` parked workers rescan. Must run *after* the new work
  /// is visible in some queue.
  void wake(int hint) {
    signal_.fetch_add(1, std::memory_order_seq_cst);
    bool woke = false;
    {
      std::lock_guard<std::mutex> lock(sleepMutex_);
      if (sleepers_ > 0) {
        woke = true;
        if (hint >= sleepers_) {
          sleepCv_.notify_all();
        } else {
          for (int i = 0; i < hint; ++i) sleepCv_.notify_one();
        }
      }
    }
    if (woke) {
      unparks_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metricsEnabled()) {
        static obs::Counter& c = obs::counter("executor.unparks");
        c.add();
      }
    }
  }

  void enqueue(TaskBase* task, int wakeHint) {
    if (tlsOwner == this && tlsWorkerIndex >= 0) {
      // On one of our workers: push to the local deque (stealable).
      workers_[static_cast<std::size_t>(tlsWorkerIndex)]->deque.push(task);
    } else {
      std::lock_guard<std::mutex> lock(injectorMutex_);
      injector_.push_back(task);
      if (obs::metricsEnabled()) {
        static obs::Gauge& g = obs::gauge("executor.queue_depth");
        g.max(static_cast<double>(injector_.size()));
      }
    }
    wake(wakeHint);
  }

  void runBatchChunks(BatchState& state) {
    for (;;) {
      const int begin =
          state.next.fetch_add(state.chunk, std::memory_order_relaxed);
      if (begin >= state.count) return;
      chunkGrabs_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metricsEnabled()) {
        static obs::Counter& c = obs::counter("executor.chunk_grabs");
        c.add();
      }
      const int end = std::min(begin + state.chunk, state.count);
      for (int i = begin; i < end; ++i) {
        try {
          state.fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state.mutex);
          if (!state.error) state.error = std::current_exception();
        }
        // Per-index (not per-chunk) completion: the caller's wait predicate
        // is done == count, and acq_rel publishes the task's side effects.
        if (state.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            state.count) {
          std::lock_guard<std::mutex> lock(state.mutex);
          state.cv.notify_all();
        }
      }
    }
  }

  void runChunked(int count, int lanes, FunctionRef<void(int)> fn) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsEnabled()) {
      static obs::Counter& c = obs::counter("executor.batches");
      c.add();
    }
    // Chunked handout: small counts degenerate to chunk 1 (each lane takes
    // one index at a time), large counts amortize the
    // fetch_add over ~4 chunks per lane.
    const int chunk = std::max(1, count / (lanes * 4));
    auto state = std::make_shared<BatchState>(fn, count, chunk);
    const int helpers = lanes - 1;
    for (int h = 0; h < helpers; ++h) {
      enqueue(new BatchTask(this, state), 1);
    }
    // The caller is a lane too: by the time it waits, every index has been
    // claimed by a running thread, so completion needs no free worker.
    runBatchChunks(*state);
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->cv.wait(lock, [&] {
        return state->done.load(std::memory_order_acquire) == state->count;
      });
    }
    if (state->error) std::rethrow_exception(state->error);
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex injectorMutex_;
  std::deque<TaskBase*> injector_;  // tasks from non-worker threads

  std::mutex sleepMutex_;
  std::condition_variable sleepCv_;
  int sleepers_ = 0;  // guarded by sleepMutex_
  std::atomic<std::uint64_t> signal_{0};
  std::atomic<bool> shutdown_{false};

  std::atomic<long long> steals_{0};
  std::atomic<long long> chunkGrabs_{0};
  std::atomic<long long> parks_{0};
  std::atomic<long long> unparks_{0};
  std::atomic<long long> submitted_{0};
  std::atomic<long long> batches_{0};
};

thread_local Executor::Impl* Executor::Impl::tlsOwner = nullptr;
thread_local int Executor::Impl::tlsWorkerIndex = -1;

namespace {
std::atomic<Executor*> g_globalExecutor{nullptr};
}  // namespace

Executor& Executor::global() {
  static Executor executor(defaultWorkerCount());
  g_globalExecutor.store(&executor, std::memory_order_release);
  return executor;
}

Executor* Executor::globalIfCreated() {
  return g_globalExecutor.load(std::memory_order_acquire);
}

Executor::Executor(int numWorkers)
    : impl_(std::make_unique<Impl>(numWorkers)) {}

Executor::~Executor() = default;

int Executor::numWorkers() const {
  return static_cast<int>(impl_->workers_.size());
}

void Executor::parallelForBatch(int count, int maxParallel,
                                FunctionRef<void(int)> fn) {
  if (count <= 0) return;
  const int lanes = std::min({maxParallel, count, numWorkers() + 1});
  if (lanes <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  impl_->runChunked(count, lanes, fn);
}

void Executor::submit(std::function<void()> task) {
  impl_->submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metricsEnabled()) {
    static obs::Counter& c = obs::counter("executor.submitted");
    c.add();
  }
  impl_->enqueue(new Impl::FunctionTask(std::move(task)), 1);
}

std::size_t Executor::queueDepth() const {
  std::lock_guard<std::mutex> lock(impl_->injectorMutex_);
  return impl_->injector_.size();
}

int Executor::parkedWorkers() const {
  std::lock_guard<std::mutex> lock(impl_->sleepMutex_);
  return impl_->sleepers_;
}

void Executor::sampleGauges() const {
  if (!obs::metricsEnabled()) return;
  obs::gauge("executor.queue_depth").max(static_cast<double>(queueDepth()));
  obs::gauge("executor.parked_workers")
      .set(static_cast<double>(parkedWorkers()));
}

Executor::Stats Executor::stats() const {
  Stats s;
  s.steals = impl_->steals_.load(std::memory_order_relaxed);
  s.chunkGrabs = impl_->chunkGrabs_.load(std::memory_order_relaxed);
  s.parks = impl_->parks_.load(std::memory_order_relaxed);
  s.unparks = impl_->unparks_.load(std::memory_order_relaxed);
  s.submitted = impl_->submitted_.load(std::memory_order_relaxed);
  s.batches = impl_->batches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mclg
