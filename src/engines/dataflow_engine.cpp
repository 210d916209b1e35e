#include "engines/dataflow_engine.hpp"

#include "common/error.hpp"
#include "engines/stage_library.hpp"
#include "hls/dataflow.hpp"

namespace cdsflow::engine {

DataflowEngine::DataflowEngine(cds::TermStructure interest,
                               cds::TermStructure hazard,
                               FpgaEngineConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      config_(config) {
  interest_.validate();
  hazard_.validate();
}

PricingRun DataflowEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  PricingRun run;
  run.results.reserve(options.size());

  // Per-option tracing would interleave unrelated simulations; not
  // supported here (use the free-running engines for Fig. 2).
  FpgaEngineConfig cfg = config_;
  cfg.trace = nullptr;

  const hls::RegionRunner runner(
      hls::ExecutionPolicy::kRestartPerOption,
      {cfg.cost.region_restart_cycles,
       cfg.cost.region_initial_start_cycles});

  const auto region = runner.run(options.size(), [&](std::uint64_t i) {
    sim::Simulation sim;
    const auto handles = build_cds_dataflow_graph(
        sim, interest_, hazard_, options.subspan(i, 1), cfg,
        GraphVariant::kOptimised);
    const auto sim_result = sim.run();
    const auto& spreads = handles.sink->collected();
    CDSFLOW_ASSERT(spreads.size() == 1,
                   "per-option region must produce one spread");
    run.results.push_back(spreads.front());
    return sim_result.end_cycle;
  });

  run.kernel_cycles = region.total_cycles;
  run.invocations = region.invocations;
  run.kernel_seconds =
      static_cast<double>(run.kernel_cycles) / cfg.clock_hz();
  if (cfg.include_transfer) {
    const fpga::Interconnect pcie(cfg.interconnect);
    run.transfer_seconds = pcie.transfer_seconds(
        batch_traffic(interest_.size(), options.size()).total());
  }
  run.finalise(options.size());
  return run;
}

}  // namespace cdsflow::engine
