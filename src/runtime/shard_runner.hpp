/// \file shard_runner.hpp
/// The one dispatch core of the sharded runtimes: run a shard plan over a
/// fixed set of lanes and account for it.
///
/// PortfolioRuntime (options axis) and SweepRuntime (scenario axis) each own
/// one runner and one engine / pricer replica per lane. run() calls
/// `fn(shard, lane)` once per shard of a plan_shards() plan, where `lane` is
/// the worker running the call: replica k belongs to lane k, and a lane runs
/// one shard at a time, so replicas need no checkout and no lock.
///
/// Lanes and pool lifetime: with one lane every shard runs inline on the
/// caller and no thread is ever started. With more, the runner starts one
/// ThreadPool of lanes() workers on its first run() and keeps it until the
/// runner (that is, the owning runtime) is destroyed, so no call after the
/// first pays for thread start-up.
///
/// Failure rule: run() waits for every shard of the call to return before it
/// rethrows the first failure in plan order. The shard tasks reference the
/// caller's options, outputs and `fn`; since the pool outlives the call,
/// returning at the first failure would leave later shards writing into
/// freed memory.
///
/// Threading: run() is single-caller -- one run() at a time per runner.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"

namespace cdsflow::runtime {

/// What one run() measured, indexed like the plan.
struct ShardSchedule {
  /// What `fn` returned for each shard: its modelled seconds.
  std::vector<double> seconds;
  /// Lane the deterministic list schedule of `seconds` places each shard on.
  std::vector<unsigned> lane;
  /// list_schedule_makespan() of `seconds` over the lanes.
  double makespan_seconds = 0.0;
  /// Measured host wall time from the first dispatch to the last return.
  double wall_seconds = 0.0;
};

class ShardRunner {
 public:
  /// Takes `workers` lanes (0 selects hardware_concurrency()).
  explicit ShardRunner(unsigned workers);

  unsigned lanes() const { return lanes_; }

  /// Runs `fn(shard, lane)` for every shard of `plan`, `lane` in
  /// [0, lanes()); `fn` returns the shard's modelled seconds. Waits for every
  /// shard, then rethrows the first failure in plan order.
  ShardSchedule run(std::span<const Shard> plan,
                    const std::function<double(const Shard&, unsigned)>& fn);

 private:
  unsigned lanes_;
  /// Started on the first multi-lane run(), joined by the destructor.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cdsflow::runtime
