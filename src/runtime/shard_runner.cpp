#include "runtime/shard_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <thread>

namespace cdsflow::runtime {

ShardRunner::ShardRunner(unsigned workers)
    : lanes_(workers != 0 ? workers
                          : std::max(1u, std::thread::hardware_concurrency())) {}

ShardSchedule ShardRunner::run(
    std::span<const Shard> plan,
    const std::function<double(const Shard&, unsigned)>& fn) {
  ShardSchedule out;
  out.seconds.assign(plan.size(), 0.0);
  std::vector<std::exception_ptr> failures(plan.size());
  std::atomic<std::size_t> next{0};
  // Each lane claims plan positions until the plan runs out. A failing
  // shard parks its exception in its slot, so the other shards still run.
  const auto claim = [&](unsigned lane) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < plan.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        out.seconds[plan[i].index] = fn(plan[i], lane);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
  };
  if (lanes_ > 1 && !pool_) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<void>> helpers;
  std::exception_ptr failure;
  try {
    // One claim task per worker; worker w runs it as lane w + 1.
    helpers.reserve(lanes_ - 1);
    while (helpers.size() + 1 < lanes_) {
      helpers.push_back(
          pool_->submit([&claim](unsigned worker) { claim(worker + 1); }));
    }
  } catch (...) {
    failure = std::current_exception();  // lane 0 still drains the plan
  }
  claim(0);
  for (auto& helper : helpers) helper.wait();
  const auto t1 = std::chrono::steady_clock::now();

  // Every lane has returned: nothing references this frame any more.
  for (std::size_t i = 0; i < failures.size() && !failure; ++i) {
    failure = failures[i];
  }
  if (failure) std::rethrow_exception(failure);

  out.makespan_seconds = list_schedule_makespan(out.seconds, lanes_, &out.lane);
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace cdsflow::runtime
