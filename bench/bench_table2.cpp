/// \file bench_table2.cpp
/// Reproduces paper Table II: "Performance and power when scaling the FPGA
/// CDS engines on an Alveo U280, against 24-core Xeon CPU."
///
/// Rows: the CPU on all hardware threads (the paper's machine had 24 cores;
/// this host's count is printed) -- the sharded runtime with one lane and
/// one contiguous shard per thread, the paper's static partition, at
/// measured wall throughput -- then 1, 2 and 5 vectorised FPGA engines.
/// The resource estimator first verifies that 5 engines fit on the U280 and
/// 6 do not, reproducing the paper's packing limit. Power is modelled (no
/// board/RAPL here -- see DESIGN.md substitutions) with the calibrated
/// affine models.
///
/// Usage: bench_table2 [n_options] [runs]

#include <cstdlib>
#include <iostream>
#include <thread>

#include "common/format.hpp"
#include "common/stats.hpp"
#include "engines/multi_engine.hpp"
#include "fpga/power.hpp"
#include "fpga/resource.hpp"
#include "report/experiment.hpp"
#include "report/paper.hpp"
#include "report/table.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace cdsflow;
  const std::size_t n_options =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 512;
  const int runs = argc > 2 ? std::atoi(argv[2])
                            : report::paper::kRunsPerMeasurement;

  const auto scenario = workload::paper_scenario(n_options);
  const auto device = fpga::alveo_u280();
  const fpga::FpgaPowerModel fpga_power;
  const fpga::CpuPowerModel cpu_power;

  std::cout << "== Table II reproduction ==\n"
            << "scenario: " << scenario.description << '\n'
            << "options: " << n_options << ", runs averaged: " << runs
            << "\n\n";

  // --- packing limit ("being able to fit five onto the Alveo U280") --------
  engine::MultiEngineConfig probe;
  probe.n_engines = 1;
  engine::MultiEngine probe_engine(scenario.interest, scenario.hazard, probe);
  const fpga::ResourceEstimator estimator(device);
  const unsigned max_engines = estimator.max_engines(probe_engine.shape());
  std::cout << "resource fit: max vectorised engines on " << device.name
            << " = " << max_engines << " (paper: 5)\n"
            << estimator.utilisation_report(probe_engine.shape(), max_engines)
            << '\n';

  report::Table table("Table II -- Performance and power when scaling");
  table.set_columns({"Description", "Options/s", "Options/s (paper)",
                     "Watts", "Watts (paper)", "Opts/Watt",
                     "Opts/Watt (paper)"});

  auto add_row = [&table](const std::string& desc, double ops, double watts,
                          double paper_ops, double paper_watts,
                          double paper_eff) {
    table.add_row({desc, with_thousands(ops, 2),
                   paper_ops == 0 ? "-" : with_thousands(paper_ops, 2),
                   fixed(watts, 2),
                   paper_watts == 0 ? "-" : fixed(paper_watts, 2),
                   fixed(fpga::power_efficiency(ops, watts), 2),
                   paper_eff == 0 ? "-" : fixed(paper_eff, 2)});
  };

  // --- CPU on all hardware threads ------------------------------------------
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  {
    runtime::RuntimeConfig cfg;
    cfg.engine = "cpu";
    cfg.workers = hw_threads;
    cfg.shard_size = (n_options + hw_threads - 1) / hw_threads;
    runtime::PortfolioRuntime cpu(scenario.interest, scenario.hazard, cfg);
    (void)cpu.price(scenario.options);  // warm-up: starts the lanes
    RunningStats ops;
    for (int r = 0; r < runs; ++r) {
      ops.add(cpu.price(scenario.options).wall_options_per_second);
    }
    add_row(std::to_string(hw_threads) + "-thread CPU (this host; paper: " +
                std::to_string(report::paper::kCpuCores) + "-core Xeon)",
            ops.mean(), cpu_power.watts(hw_threads),
            report::paper::kCpu24CoreOptsPerSec,
            report::paper::kCpu24CoreWatts,
            report::paper::kCpu24CoreOptsPerWatt);
    std::cerr << "  measured cpu x " << hw_threads << " lane(s): "
              << ops.mean() << " options/s\n";
  }

  // --- 1 / 2 / 5 FPGA engines -------------------------------------------------
  struct FpgaRow {
    unsigned engines;
    double paper_ops, paper_watts, paper_eff;
  };
  const FpgaRow fpga_rows[] = {
      {1, report::paper::kFpga1EngineOptsPerSec,
       report::paper::kFpga1EngineWatts, report::paper::kFpga1EngineOptsPerWatt},
      {2, report::paper::kFpga2EngineOptsPerSec,
       report::paper::kFpga2EngineWatts, report::paper::kFpga2EngineOptsPerWatt},
      {5, report::paper::kFpga5EngineOptsPerSec,
       report::paper::kFpga5EngineWatts, report::paper::kFpga5EngineOptsPerWatt},
  };
  double fpga5_ops = 0.0;
  for (const auto& row : fpga_rows) {
    engine::MultiEngineConfig cfg;
    cfg.n_engines = row.engines;
    cfg.device = device;  // enforce the fit check
    engine::MultiEngine fpga_engine(scenario.interest, scenario.hazard, cfg);
    const auto m = report::measure(fpga_engine, scenario.options, runs);
    if (row.engines == 5) fpga5_ops = m.mean_ops();
    add_row(std::to_string(row.engines) + " FPGA engine(s)", m.mean_ops(),
            fpga_power.watts(row.engines), row.paper_ops, row.paper_watts,
            row.paper_eff);
    std::cerr << "  measured multi-" << row.engines << ": " << m.mean_ops()
              << " options/s\n";
  }

  std::cout << table.render_text() << '\n';

  std::cout << "headline ratios (paper Sec. IV / V):\n"
            << "  5-engine FPGA vs paper 24-core CPU: "
            << fixed(fpga5_ops / report::paper::kCpu24CoreOptsPerSec, 2)
            << "x (paper: " << fixed(report::paper::kFpgaVsCpu, 2) << "x)\n"
            << "  power ratio CPU/FPGA (models): "
            << fixed(cpu_power.watts(report::paper::kCpuCores) /
                         fpga_power.watts(5),
                     2)
            << "x (paper: " << fixed(report::paper::kPowerRatio, 2) << "x)\n";
  return 0;
}
