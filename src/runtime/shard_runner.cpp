#include "runtime/shard_runner.hpp"

#include <algorithm>
#include <chrono>
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
  if (lanes_ > 1 && !pool_) pool_ = std::make_unique<ThreadPool>(lanes_);

  const auto t0 = std::chrono::steady_clock::now();
  if (lanes_ == 1) {
    for (const auto& shard : plan) out.seconds[shard.index] = fn(shard, 0);
  } else {
    std::vector<std::future<void>> pending;
    pending.reserve(plan.size());
    try {
      for (const auto& shard : plan) {
        pending.push_back(pool_->submit([&fn, &shard, &out](unsigned lane) {
          out.seconds[shard.index] = fn(shard, lane);
        }));
      }
    } catch (...) {
      for (auto& f : pending) f.wait();  // a failed submit: drain, then throw
      throw;
    }
    for (auto& f : pending) f.wait();
    for (auto& f : pending) f.get();  // every shard returned: rethrow now
  }
  const auto t1 = std::chrono::steady_clock::now();

  out.makespan_seconds = list_schedule_makespan(out.seconds, lanes_, &out.lane);
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace cdsflow::runtime
