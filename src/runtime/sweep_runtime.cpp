#include "runtime/sweep_runtime.hpp"

#include <chrono>

#include "runtime/shard.hpp"

namespace cdsflow::runtime {

SweepRuntime::SweepRuntime(cds::TermStructure interest,
                           cds::TermStructure hazard,
                           std::span<const cds::CdsOption> options,
                           SweepRuntimeConfig config)
    : config_(config), runner_(config_.workers) {
  pricers_.reserve(runner_.lanes());
  for (unsigned i = 0; i < runner_.lanes(); ++i) {
    pricers_.emplace_back(interest, hazard, options, config_.level);
  }
}

SweepRun SweepRuntime::run(const cds::ScenarioMatrix& scenarios) {
  SweepRun out;
  out.lanes = runner_.lanes();
  out.shard_size = config_.shard_size != 0
                       ? config_.shard_size
                       : auto_shard_size(scenarios.count, out.lanes);
  if (scenarios.count == 0) return out;

  const auto plan = plan_shards(scenarios.count, out.shard_size);
  out.aggregates.resize(scenarios.count);
  std::vector<cds::SweepStats> shard_stats(plan.size());

  // Each shard writes a disjoint slice of `aggregates` (its own scenario
  // range), so the output is in submission order by construction and no
  // merge reordering is ever needed.
  const ShardSchedule schedule =
      runner_.run(plan, [&](const Shard& shard, unsigned lane) {
        const auto s0 = std::chrono::steady_clock::now();
        shard_stats[shard.index] = pricers_[lane].sweep(
            scenarios, shard.begin, shard.end,
            std::span<cds::ScenarioAggregate>(out.aggregates)
                .subspan(shard.begin, shard.size()));
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - s0)
            .count();
      });

  // Stats and accounting merge in shard (= submission) order.
  out.shards.reserve(plan.size());
  for (const auto& shard : plan) {
    out.stats.merge(shard_stats[shard.index]);
    out.shards.push_back({shard.index, shard.begin, shard.end,
                          schedule.seconds[shard.index],
                          schedule.lane[shard.index]});
  }
  out.modelled_seconds = schedule.makespan_seconds;
  if (out.modelled_seconds > 0.0) {
    out.modelled_scenarios_per_second =
        static_cast<double>(scenarios.count) / out.modelled_seconds;
  }
  out.wall_seconds = schedule.wall_seconds;
  if (out.wall_seconds > 0.0) {
    out.wall_scenarios_per_second =
        static_cast<double>(scenarios.count) / out.wall_seconds;
  }
  return out;
}

}  // namespace cdsflow::runtime
