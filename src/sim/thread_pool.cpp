#include "sim/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace splicer::sim {

namespace {
thread_local int t_shard = -1;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shards_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // The host refused a worker: the ones already running are joinable,
    // and destroying a joinable std::thread terminates the process.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    // wait() semantics without the rethrow: a dtor must not throw.
    std::unique_lock lock(done_mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
  }
  stop_workers();
}

void ThreadPool::stop_workers() {
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      std::lock_guard lock(shard->mutex);
    }
    shard->ready.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ThreadPool::submit(Task task) {
  const std::size_t next = next_shard_.fetch_add(1, std::memory_order_relaxed);
  submit_to(next % shards_.size(), std::move(task));
}

void ThreadPool::submit_to(std::size_t shard_index, Task task) {
  if (shard_index >= shards_.size()) {
    throw std::out_of_range("ThreadPool::submit_to: shard " +
                            std::to_string(shard_index) + " >= thread_count " +
                            std::to_string(shards_.size()));
  }
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard lock(done_mutex_);
    ++pending_;
  }
  {
    std::lock_guard lock(shard.mutex);
    shard.queue.push_back(std::move(task));
  }
  shard.ready.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(done_mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

int ThreadPool::current_shard() noexcept { return t_shard; }

void ThreadPool::worker_loop(std::size_t shard_index) {
  t_shard = static_cast<int>(shard_index);
  Shard& shard = *shards_[shard_index];
  for (;;) {
    Task task;
    {
      std::unique_lock lock(shard.mutex);
      shard.ready.wait(lock, [&] {
        return !shard.queue.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (shard.queue.empty()) return;  // stopping and drained
      task = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    try {
      task();
    } catch (...) {
      record_exception(std::current_exception());
    }
    {
      std::lock_guard lock(done_mutex_);
      --pending_;
      if (pending_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::record_exception(std::exception_ptr error) {
  std::lock_guard lock(done_mutex_);
  if (!first_error_) first_error_ = std::move(error);
}

}  // namespace splicer::sim
