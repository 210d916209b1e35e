#include "engines/interoption_engine.hpp"

#include "common/error.hpp"
#include "hls/dataflow.hpp"

namespace cdsflow::engine {

InterOptionEngine::InterOptionEngine(cds::TermStructure interest,
                                     cds::TermStructure hazard,
                                     FpgaEngineConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      config_(config) {
  interest_.validate();
  hazard_.validate();
}

PricingRun InterOptionEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  PricingRun run;

  sim::Simulation sim;
  const auto handles = build_cds_dataflow_graph(
      sim, interest_, hazard_, options, config_, GraphVariant::kOptimised);
  const auto sim_result = sim.run();
  run.results = handles.sink->collected();
  CDSFLOW_ASSERT(run.results.size() == options.size(),
                 "free-running region must produce one spread per option");

  last_run_.total_time_points = handles.total_time_points;
  last_run_.hazard_busy = handles.hazard_unit->busy_cycles();
  last_run_.interp_busy = handles.interp_unit->busy_cycles();
  last_run_.option_latency_cycles = handles.option_latencies();

  run.kernel_cycles =
      sim_result.end_cycle + config_.cost.region_initial_start_cycles;
  run.invocations = 1;
  run.kernel_seconds =
      static_cast<double>(run.kernel_cycles) / config_.clock_hz();
  if (config_.include_transfer) {
    const fpga::Interconnect pcie(config_.interconnect);
    run.transfer_seconds = pcie.transfer_seconds(
        batch_traffic(interest_.size(), options.size()).total());
  }
  run.finalise(options.size());
  return run;
}

}  // namespace cdsflow::engine
