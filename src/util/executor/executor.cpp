#include "util/executor/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mclg {
namespace {

int defaultWorkerCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

}  // namespace

struct Executor::Impl {
  // One per parallelForBatch call that goes wide. Heap-shared so helper
  // tasks that run *after* the batch drained (their claim finds
  // next >= count) can still touch it safely; the FunctionRef is only
  // invoked for claimed indices, which all precede the caller's return.
  struct Batch {
    Batch(FunctionRef<void(int)> f, int n, int chunkSize)
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

  explicit Impl(int numWorkers) {
    const int n = std::max(1, numWorkers);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) threads_.emplace_back([this] { workerLoop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  // Helper tasks are drained before shutdown is honoured; any still queued
  // belong to batches whose indices are all claimed, so running one is a
  // single failed claim.
  void workerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (!queue_.empty()) {
        std::shared_ptr<Batch> batch = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        runChunks(*batch);
        batch.reset();
        lock.lock();
      } else if (shutdown_) {
        return;
      } else {
        ++parked_;
        parks_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metricsEnabled()) {
          static obs::Counter& c = obs::counter("executor.parks");
          c.add();
        }
        cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
        --parked_;
      }
    }
  }

  void runChunks(Batch& batch) {
    for (;;) {
      const int begin =
          batch.next.fetch_add(batch.chunk, std::memory_order_relaxed);
      if (begin >= batch.count) return;
      chunkGrabs_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metricsEnabled()) {
        static obs::Counter& c = obs::counter("executor.chunk_grabs");
        c.add();
      }
      const int end = std::min(begin + batch.chunk, batch.count);
      for (int i = begin; i < end; ++i) {
        try {
          batch.fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(batch.mutex);
          if (!batch.error) batch.error = std::current_exception();
        }
        // Per-index (not per-chunk) completion: the caller's wait predicate
        // is done == count, and acq_rel publishes the task's side effects.
        if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            batch.count) {
          std::lock_guard<std::mutex> lock(batch.mutex);
          batch.cv.notify_all();
        }
      }
    }
  }

  void runBatch(int count, int lanes, FunctionRef<void(int)> fn) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsEnabled()) {
      static obs::Counter& c = obs::counter("executor.batches");
      c.add();
    }
    // Chunked handout: small counts degenerate to chunk 1 (each lane takes
    // one index at a time), large counts amortize the fetch_add over ~4
    // chunks per lane.
    const int chunk = std::max(1, count / (lanes * 4));
    auto batch = std::make_shared<Batch>(fn, count, chunk);
    const int helpers = lanes - 1;
    int toWake = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (int h = 0; h < helpers; ++h) queue_.push_back(batch);
      toWake = std::min(helpers, parked_);
      if (obs::metricsEnabled()) {
        obs::gauge("executor.queue_depth")
            .max(static_cast<double>(queue_.size()));
      }
    }
    for (int w = 0; w < toWake; ++w) {
      cv_.notify_one();
      unparks_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metricsEnabled()) {
        static obs::Counter& c = obs::counter("executor.unparks");
        c.add();
      }
    }
    // The caller is a lane too: by the time it waits, every index has been
    // claimed by a running thread, so completion needs no free worker.
    runChunks(*batch);
    {
      std::unique_lock<std::mutex> lock(batch->mutex);
      batch->cv.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) == batch->count;
      });
    }
    if (batch->error) std::rethrow_exception(batch->error);
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;  // guarded by mutex_
  int parked_ = 0;                            // guarded by mutex_
  bool shutdown_ = false;                     // guarded by mutex_

  std::atomic<long long> chunkGrabs_{0};
  std::atomic<long long> parks_{0};
  std::atomic<long long> unparks_{0};
  std::atomic<long long> batches_{0};

  std::vector<std::thread> threads_;  // last: workers use every member above
};

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
  return static_cast<int>(impl_->threads_.size());
}

void Executor::parallelForBatch(int count, int maxParallel,
                                FunctionRef<void(int)> fn) {
  if (count <= 0) return;
  const int lanes = std::min({maxParallel, count, numWorkers() + 1});
  if (lanes <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  impl_->runBatch(count, lanes, fn);
}

std::size_t Executor::queueDepth() const {
  std::lock_guard<std::mutex> lock(impl_->mutex_);
  return impl_->queue_.size();
}

int Executor::parkedWorkers() const {
  std::lock_guard<std::mutex> lock(impl_->mutex_);
  return impl_->parked_;
}

void Executor::sampleGauges() const {
  if (!obs::metricsEnabled()) return;
  obs::gauge("executor.queue_depth").max(static_cast<double>(queueDepth()));
  obs::gauge("executor.parked_workers")
      .set(static_cast<double>(parkedWorkers()));
}

Executor::Stats Executor::stats() const {
  Stats s;
  s.chunkGrabs = impl_->chunkGrabs_.load(std::memory_order_relaxed);
  s.parks = impl_->parks_.load(std::memory_order_relaxed);
  s.unparks = impl_->unparks_.load(std::memory_order_relaxed);
  s.batches = impl_->batches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mclg
