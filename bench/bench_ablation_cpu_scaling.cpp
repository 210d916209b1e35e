/// \file bench_ablation_cpu_scaling.cpp
/// Ablation: CPU thread scaling.
///
/// The paper notes the CPU engine "is scaling fairly poorly, where we have
/// increased the core count by 24 times but the performance only increases
/// by around nine times" -- the curve scans are memory-bandwidth-bound.
/// This bench sweeps lane counts up to the host's hardware concurrency and
/// reports the same scaling curve for this machine: the scalar "cpu" engine
/// on a sharded runtime with one contiguous shard per lane (the paper's
/// static per-thread partition), at measured wall throughput.
///
/// Usage: bench_ablation_cpu_scaling [n_options] [runs]

#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "common/format.hpp"
#include "common/stats.hpp"
#include "report/table.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace cdsflow;
  const std::size_t n_options =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2048;
  const int runs = argc > 2 ? std::atoi(argv[2]) : 3;

  const auto scenario = workload::paper_scenario(n_options);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::cout << "== Ablation: CPU thread scaling (paper: 9x at 24 cores) ==\n"
            << n_options << " options, " << runs << " runs averaged, host "
            << "has " << hw << " hardware thread(s), one runtime lane per "
            << "thread\n\n";

  std::vector<unsigned> counts;
  for (unsigned t = 1; t <= hw; t *= 2) counts.push_back(t);
  if (counts.back() != hw) counts.push_back(hw);

  report::Table table("CPU throughput vs threads");
  table.set_columns({"Threads", "Options/s", "Scaling", "Efficiency"});
  double base = 0.0;
  for (const unsigned t : counts) {
    runtime::RuntimeConfig cfg;
    cfg.engine = "cpu";
    cfg.workers = t;
    cfg.shard_size = (n_options + t - 1) / t;
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    (void)rt.price(scenario.options);  // warm-up: starts the lanes
    RunningStats ops;
    for (int r = 0; r < runs; ++r) {
      ops.add(rt.price(scenario.options).wall_options_per_second);
    }
    if (t == 1) base = ops.mean();
    table.add_row({std::to_string(t), with_thousands(ops.mean(), 2),
                   fixed(ops.mean() / base, 2) + "x",
                   fixed(100.0 * ops.mean() / base / t, 1) + "%"});
  }
  std::cout << table.render_text() << '\n';
  return 0;
}
