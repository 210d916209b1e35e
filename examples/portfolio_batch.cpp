/// \file portfolio_batch.cpp
/// The paper's motivating scenario (Sec. I): overnight batch pricing of a
/// large CDS book under a deadline, choosing between a multi-core CPU and an
/// FPGA card. Prices the same portfolio on both back-ends, validates they
/// agree, and reports throughput, projected batch completion time and energy
/// per million options.
///
/// Run:  ./portfolio_batch [n_options]

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "common/format.hpp"
#include "common/stats.hpp"
#include "engines/multi_engine.hpp"
#include "engines/planner.hpp"
#include "fpga/power.hpp"
#include "report/table.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace cdsflow;
  const std::size_t n_options =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;

  const auto scenario = workload::paper_scenario(n_options, /*seed=*/2026);
  std::cout << "overnight batch: " << n_options << " CDS options, "
            << scenario.description << "\n\n";

  // --- CPU back-end (real execution) -----------------------------------------
  // One runtime lane and one contiguous shard per hardware thread.
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  runtime::RuntimeConfig cpu_cfg;
  cpu_cfg.engine = "cpu";
  cpu_cfg.workers = threads;
  cpu_cfg.shard_size = (n_options + threads - 1) / threads;
  runtime::PortfolioRuntime cpu(scenario.interest, scenario.hazard, cpu_cfg);
  const auto cpu_run = cpu.price(scenario.options);

  // --- FPGA back-end (simulated 5-engine U280) --------------------------------
  engine::MultiEngineConfig fpga_cfg;
  fpga_cfg.n_engines = 5;
  fpga_cfg.device = fpga::alveo_u280();
  engine::MultiEngine fpga(scenario.interest, scenario.hazard, fpga_cfg);
  const auto fpga_run = fpga.price(scenario.options);

  // --- sharded runtime (4 concurrent simulated cards) -------------------------
  runtime::RuntimeConfig rt_cfg;
  rt_cfg.engine = "vectorised";
  rt_cfg.workers = 4;
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, rt_cfg);
  const auto rt_run = rt.price(scenario.options);

  // --- validation: both back-ends agree ---------------------------------------
  double max_rel = 0.0;
  for (std::size_t i = 0; i < n_options; ++i) {
    max_rel = std::max(max_rel,
                       relative_difference(cpu_run.run.results[i].spread_bps,
                                           fpga_run.results[i].spread_bps));
  }
  std::cout << "cross-validation: max relative spread difference "
            << compact(max_rel) << " (accumulation-order effects only)\n\n";

  // --- report -------------------------------------------------------------------
  const fpga::CpuPowerModel cpu_power;
  const fpga::FpgaPowerModel fpga_power;
  const double cpu_watts = cpu_power.watts(threads);
  const double fpga_watts = fpga_power.watts(fpga_cfg.n_engines);

  report::Table table("Batch pricing back-ends");
  table.set_columns({"Back-end", "Options/s", "1M options in", "Watts",
                     "kJ per 1M options"});
  auto add = [&table](const std::string& name, double ops, double watts) {
    const double seconds_per_million = 1e6 / ops;
    table.add_row({name, with_thousands(ops, 0),
                   format_duration_ns(seconds_per_million * 1e9),
                   fixed(watts, 1),
                   fixed(watts * seconds_per_million / 1e3, 2)});
  };
  add("CPU x" + std::to_string(threads) + " threads (measured)",
      cpu_run.wall_options_per_second, cpu_watts);
  add("FPGA x5 engines (simulated U280)", fpga_run.options_per_second,
      fpga_watts);
  add("Runtime: 4 sharded vectorised lanes (modelled)",
      rt_run.run.options_per_second, 4 * fpga_power.watts(1));
  std::cout << table.render_text() << '\n';
  bool rt_identical = rt_run.run.results.size() == n_options;
  for (std::size_t i = 0; rt_identical && i < n_options; ++i) {
    rt_identical = rt_run.run.results[i].id == fpga_run.results[i].id &&
                   rt_run.run.results[i].spread_bps ==
                       fpga_run.results[i].spread_bps;
  }
  std::cout << "sharded runtime: " << rt_run.shards.size()
            << " shards of <= " << rt_run.shard_size << " options over "
            << rt_run.lanes << " lanes; results "
            << (rt_identical ? "match" : "DO NOT match")
            << " the single-engine ordering bit for bit\n\n";

  // --- book statistics -------------------------------------------------------------
  RunningStats spreads;
  for (const auto& r : fpga_run.results) spreads.add(r.spread_bps);
  std::cout << "book spread statistics: mean " << fixed(spreads.mean(), 1)
            << " bps, min " << fixed(spreads.min(), 1) << ", max "
            << fixed(spreads.max(), 1) << ", stddev "
            << fixed(spreads.stddev(), 1) << "\n\n";

  // --- capacity planning: 10M options before a 2-minute deadline --------------
  const engine::BatchRequirements requirements{.n_options = 10'000'000,
                                               .deadline_seconds = 120.0};
  engine::PlannerConfig planner_cfg;
  // Two probe sizes calibrate the affine (setup + per-option) cost model;
  // the larger one is big enough that per-call setup amortises fairly.
  planner_cfg.probe_sizes = {128, 512};
  const auto candidates = engine::enumerate_backends(
      scenario.interest, scenario.hazard, planner_cfg);
  // Every engine x workers x shard_size plan, ranked; a one-lane, one-shard
  // plan is the bare back-end pricing the whole batch.
  const auto plans =
      engine::plan_runtime(candidates, requirements, planner_cfg);

  report::Table plan_table(
      "deadline plan: 10M options in <= 120 s (cheapest feasible first; " +
      std::to_string(std::min<std::size_t>(10, plans.size())) + " of " +
      std::to_string(plans.size()) + " plans)");
  plan_table.set_columns({"Back-end", "Workers", "Shard size",
                          "Projected time", "Projected energy", "Feasible"});
  for (std::size_t i = 0; i < std::min<std::size_t>(10, plans.size()); ++i) {
    const auto& entry = plans[i];
    plan_table.add_row(
        {entry.config.engine, std::to_string(entry.config.workers),
         std::to_string(entry.config.shard_size),
         format_duration_ns(entry.projected_seconds * 1e9),
         fixed(entry.projected_joules / 1e3, 1) + " kJ",
         entry.meets_deadline ? "yes" : "NO"});
  }
  std::cout << plan_table.render_text();
  if (const auto best = engine::best_runtime_plan(plans)) {
    std::cout << "auto-planner picks: " << best->config.engine << " x "
              << best->config.workers << " worker(s), shard size "
              << best->config.shard_size << " ("
              << format_duration_ns(best->projected_seconds * 1e9)
              << " projected; the config plugs straight into "
                 "PortfolioRuntime)\n";
  } else {
    std::cout << "no plan meets the deadline -- scale out\n";
  }
  return 0;
}
