/// \file thread_pool.hpp
/// A small fixed-size worker pool for the batch and streaming runtimes.
///
/// Deliberately minimal: FIFO task queue, std::future-based completion, no
/// work stealing. The shard runner (shard_runner.hpp) submits one claim
/// task per worker per call, and its lanes balance the load by claiming
/// shards from a shared counter; the stream runtime submits one task per
/// micro-batch. Kept as its own component so the batch, sweep and streaming
/// runtimes all share it.
///
/// Every task is told the index of the worker running it, in [0, size()).
/// A worker runs one task at a time, so per-worker state indexed by it
/// is never touched by two tasks at once and needs no lock: the stream
/// runtime's pricer replica k belongs to worker k, and the shard runner's
/// lane w + 1 (its lane 0 is the calling thread) to worker w.
///
/// Shutdown contract:
///   * stop() (also run by the destructor) closes the submission window,
///     lets the workers drain every task already queued, and joins them.
///     It is idempotent and safe to call from any thread other than a pool
///     worker.
///   * Once stop has begun, submit() FAILS FAST by throwing cdsflow::Error
///     instead of enqueueing a task that no worker may ever run -- a late
///     submit racing the destructor therefore surfaces as an exception at
///     the submission site, never as a silently-dropped task or a future
///     that hangs forever.
///   * Tasks queued before stop began always run to completion (join
///     semantics, never detach), and their futures resolve normally.
///   * Callers must still ensure the ThreadPool object outlives every
///     thread that may call submit(): submitting to a pool whose destructor
///     has *finished* is a use-after-free like any other. Use stop() to end
///     the accepting period at a well-defined point before teardown.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace cdsflow::runtime {

class ThreadPool {
 public:
  /// Starts `workers` threads. `workers` must be > 0.
  explicit ThreadPool(unsigned workers);

  /// Equivalent to stop().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Enqueues a task; it is called with the running worker's index and the
  /// future resolves when it has run (or carries the exception it threw).
  /// Throws cdsflow::Error once stop() has begun (see the shutdown contract
  /// above).
  std::future<void> submit(std::function<void(unsigned worker)> task)
      CDSFLOW_EXCLUDES(mutex_);

  /// Closes the submission window, drains the queued tasks and joins the
  /// workers. Idempotent; must not be called from a pool worker.
  void stop() CDSFLOW_EXCLUDES(stop_mutex_, mutex_);

 private:
  void worker_loop(unsigned worker) CDSFLOW_EXCLUDES(mutex_);

  /// Lock order: stop_mutex_ before mutex_ (stop() takes both; nothing
  /// else touches stop_mutex_). See docs/CONCURRENCY.md.
  Mutex mutex_ CDSFLOW_ACQUIRED_AFTER(stop_mutex_);
  std::condition_variable wake_;
  std::deque<std::packaged_task<void(unsigned)>> queue_
      CDSFLOW_GUARDED_BY(mutex_);
  bool stopping_ CDSFLOW_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;

  /// Serialises stop() against itself (destructor vs explicit call).
  Mutex stop_mutex_;
  bool joined_ CDSFLOW_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace cdsflow::runtime
