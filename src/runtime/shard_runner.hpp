/// \file shard_runner.hpp
/// The one dispatch core of the sharded runtimes: run a shard plan over a
/// fixed set of lanes and account for it.
///
/// PortfolioRuntime (options axis) and SweepRuntime (scenario axis) each own
/// one runner and one engine / pricer replica per lane. run() calls
/// `fn(shard, lane)` once per shard of a plan_shards() plan, where `lane` is
/// the lane running the call: replica k belongs to lane k, and a lane runs
/// one shard at a time, so replicas need no checkout and no lock.
///
/// Claim loop: every lane pulls plan positions from one atomic counter until
/// the plan runs out. The calling thread is lane 0 and starts pricing at
/// once; pool worker w is lane w + 1 and is woken once per call, with one
/// claim task, however many shards the plan holds.
///
/// Lanes and pool lifetime: a runner of N lanes starts N - 1 threads, so one
/// lane never starts a thread. A multi-lane runner starts one ThreadPool of
/// lanes() - 1 workers on its first run() and keeps it until the runner
/// (that is, the owning runtime) is destroyed, so no call after the first
/// pays for thread start-up. Between calls the workers sleep in the pool.
///
/// Failure rule, at every lane count: a shard's exception is kept at its
/// plan position while the other shards run, and run() rethrows the first
/// in plan order only after every lane has returned. The lanes reference
/// the caller's options, outputs and `fn`; since the pool outlives the call,
/// returning any earlier would leave lanes writing into freed memory.
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
  /// Measured host wall time from the dispatch (before any worker lane is
  /// woken) to the return of the last lane, the caller's included.
  double wall_seconds = 0.0;
};

class ShardRunner {
 public:
  /// Takes `workers` lanes (0 selects hardware_concurrency()).
  explicit ShardRunner(unsigned workers);

  unsigned lanes() const { return lanes_; }

  /// Runs `fn(shard, lane)` for every shard of `plan`, `lane` in
  /// [0, lanes()), lane 0 on the calling thread; `fn` returns the shard's
  /// modelled seconds. Runs every shard, waits for every lane, then rethrows
  /// the first failure in plan order.
  ShardSchedule run(std::span<const Shard> plan,
                    const std::function<double(const Shard&, unsigned)>& fn);

 private:
  unsigned lanes_;
  /// Lanes 1..lanes()-1. Started on the first multi-lane run(), joined by
  /// the destructor.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cdsflow::runtime
