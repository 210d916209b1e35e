#include "runtime/portfolio_runtime.hpp"

#include <utility>

#include "common/error.hpp"
#include "engines/registry.hpp"
#include "runtime/shard.hpp"

namespace cdsflow::runtime {

PortfolioRuntime::PortfolioRuntime(cds::TermStructure interest,
                                   cds::TermStructure hazard,
                                   RuntimeConfig config)
    : config_(std::move(config)),
      runner_(config_.workers) {
  engines_.reserve(runner_.lanes());
  for (unsigned i = 0; i < runner_.lanes(); ++i) {
    engines_.push_back(engine::make_engine(config_.engine, interest, hazard,
                                           config_.fpga, config_.cpu));
  }
}

PortfolioRuntime::~PortfolioRuntime() = default;

std::string PortfolioRuntime::worker_description() const {
  return engines_.front()->description();
}

RuntimeRun PortfolioRuntime::price(std::span<const cds::CdsOption> options) {
  RuntimeRun out;
  out.lanes = runner_.lanes();
  out.shard_size = config_.shard_size != 0
                       ? config_.shard_size
                       : auto_shard_size(options.size(), out.lanes);
  if (options.empty()) return out;

  const auto plan = plan_shards(options.size(), out.shard_size);
  std::vector<engine::PricingRun> shard_runs(plan.size());
  const ShardSchedule schedule =
      runner_.run(plan, [&](const Shard& shard, unsigned lane) {
        auto& run = shard_runs[shard.index];
        run = engines_[lane]->price(options.subspan(shard.begin, shard.size()));
        return run.total_seconds;
      });

  // Deterministic merge in shard (= submission) order. Risk-mode engines
  // carry sensitivities and ladder rows next to the spreads; concatenating
  // all three in the same order keeps the merged run bit-identical to a
  // single-engine run.
  out.run.results.reserve(options.size());
  out.shards.reserve(plan.size());
  for (const auto& shard : plan) {
    const auto& run = shard_runs[shard.index];
    append_shard_rows(shard, run, out.run);
    out.run.kernel_cycles += run.kernel_cycles;
    out.run.kernel_seconds += run.kernel_seconds;
    out.run.transfer_seconds += run.transfer_seconds;
    out.run.invocations += run.invocations;
    out.shards.push_back({shard.index, shard.begin, shard.end,
                          run.total_seconds, run.kernel_cycles,
                          run.invocations, schedule.lane[shard.index]});
  }

  out.run.total_seconds = schedule.makespan_seconds;
  CDSFLOW_ASSERT(out.run.total_seconds > 0.0,
                 "merged run must take non-zero time");
  out.run.options_per_second =
      static_cast<double>(options.size()) / out.run.total_seconds;

  out.wall_seconds = schedule.wall_seconds;
  if (out.wall_seconds > 0.0) {
    out.wall_options_per_second =
        static_cast<double>(options.size()) / out.wall_seconds;
  }
  return out;
}

}  // namespace cdsflow::runtime
