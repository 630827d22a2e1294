#pragma once

// Fixed-shard thread pool for the experiment harness.
//
// Deliberately work-stealing-free: every task is pinned to a shard (worker)
// at submission time, either explicitly (`submit_to`) or round-robin
// (`submit`). With sharding fixed at submission, the assignment of tasks to
// workers is a pure function of the submission sequence — independent of
// scheduling jitter — which keeps parallel experiment runs reproducible and
// easy to reason about. Experiment tasks are coarse (one simulation each)
// and pre-counted, so stealing would buy little and cost placement
// determinism.
//
// Exceptions thrown by tasks are captured; the first one is rethrown from
// `wait()` and the rest are discarded. The pool is reusable after `wait()`
// returns or throws.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/small_function.h"

namespace splicer::sim {

class ThreadPool {
 public:
  /// Task type: move-only with small-buffer storage, so a submission whose
  /// captures fit the inline buffer costs no allocation (std::function
  /// heap-allocates anything past 16 bytes and forbids move-only captures).
  using Task = common::SmallFunction<void()>;

  /// Spawns `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work (exceptions are dropped at this point — call
  /// `wait()` first if you care), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return shards_.size();
  }

  /// Enqueues a task on the next shard (round-robin over workers).
  void submit(Task task);

  /// Enqueues a task on a specific shard. `shard` must be < thread_count();
  /// anything else throws std::out_of_range. Wrapping is deliberately not
  /// done here: silent modulo aliasing would fold two logical shards onto
  /// one worker and serialize them with no visible signal. Callers that
  /// want a wrapped key must write `key % pool.thread_count()` themselves,
  /// making the fold explicit at the call site.
  void submit_to(std::size_t shard, Task task);

  /// Blocks until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown here and the rest are discarded.
  void wait();

  /// Runs `body(i)` for every i in [0, n), sharded into `thread_count()`
  /// contiguous blocks: shard s executes indices [n*s/W, n*(s+1)/W) where
  /// W = thread_count(), so index i always lands on shard floor(i*W/n)-ish
  /// (the unique s whose block contains i). The mapping is a pure function
  /// of (n, W) — stable across runs. Blocks until done (exceptions as in
  /// `wait()`). `body` is captured by reference (it outlives the call) — no
  /// type-erasure wrapper, no per-shard allocation.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    const std::size_t workers = thread_count();
    for (std::size_t s = 0; s < workers; ++s) {
      const std::size_t begin = n * s / workers;
      const std::size_t end = n * (s + 1) / workers;
      if (begin == end) continue;
      submit_to(s, [&body, begin, end] {
        for (std::size_t i = begin; i < end; ++i) body(i);
      });
    }
    wait();
  }

  /// Shard index of the calling worker thread, or -1 off-pool.
  [[nodiscard]] static int current_shard() noexcept;

 private:
  struct Shard {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Task> queue;
    std::thread worker;
  };

  void worker_loop(std::size_t shard_index);
  /// Wakes every worker and joins the ones that were started.
  void stop_workers();
  void record_exception(std::exception_ptr error);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> next_shard_{0};

  std::mutex done_mutex_;
  std::condition_variable all_done_;
  std::size_t pending_ = 0;        // guarded by done_mutex_
  std::atomic<bool> stopping_{false};
  std::exception_ptr first_error_; // guarded by done_mutex_
};

}  // namespace splicer::sim
