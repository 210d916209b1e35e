#include "runtime/thread_pool.hpp"

#include "common/error.hpp"

namespace cdsflow::runtime {

ThreadPool::ThreadPool(unsigned workers) {
  CDSFLOW_EXPECT(workers > 0, "thread pool needs at least one worker");
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  MutexLock stop_lock(stop_mutex_);
  if (joined_) return;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
  joined_ = true;
}

std::future<void> ThreadPool::submit(std::function<void(unsigned)> task) {
  std::packaged_task<void(unsigned)> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    // Fail fast: once stop has begun the workers may already be draining
    // towards exit, and a task enqueued now could sit in the queue forever.
    // Throwing here keeps the contract "every accepted task runs".
    CDSFLOW_EXPECT(!stopping_,
                   "submit() after ThreadPool::stop() began; late submits "
                   "fail fast instead of enqueueing work no worker will run");
    queue_.push_back(std::move(packaged));
  }
  wake_.notify_one();
  return future;
}

void ThreadPool::worker_loop(unsigned worker) {
  for (;;) {
    std::packaged_task<void(unsigned)> task;
    {
      UniqueLock lock(mutex_);
      wake_.wait(lock.native(),
                 [this]() CDSFLOW_REQUIRES(mutex_) {
                   return stopping_ || !queue_.empty();
                 });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task(worker);  // exceptions land in the matching future
  }
}

}  // namespace cdsflow::runtime
