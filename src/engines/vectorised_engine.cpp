#include "engines/vectorised_engine.hpp"

#include "common/error.hpp"

namespace cdsflow::engine {

VectorisedEngine::VectorisedEngine(cds::TermStructure interest,
                                   cds::TermStructure hazard,
                                   FpgaEngineConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      config_(config) {
  interest_.validate();
  hazard_.validate();
  CDSFLOW_EXPECT(config_.vector_lanes >= 1,
                 "vectorised engine requires >= 1 lane");
}

std::string VectorisedEngine::description() const {
  return "Vectorised dataflow engine (" +
         std::to_string(config_.vector_lanes) +
         " round-robin hazard/interp lanes, free-running)";
}

PricingRun VectorisedEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  PricingRun run;

  sim::Simulation sim;
  const auto handles = build_cds_dataflow_graph(
      sim, interest_, hazard_, options, config_, GraphVariant::kVectorised);
  const auto sim_result = sim.run();
  run.results = handles.sink->collected();
  CDSFLOW_ASSERT(run.results.size() == options.size(),
                 "vectorised region must produce one spread per option");

  last_run_ = LaneStats{};
  for (const auto* lane : handles.hazard_pool.lanes) {
    last_run_.hazard_lane_busy.push_back(lane->busy_cycles());
  }
  for (const auto* lane : handles.interp_pool.lanes) {
    last_run_.interp_lane_busy.push_back(lane->busy_cycles());
  }
  last_run_.hazard_scheduler_busy =
      handles.hazard_pool.distributor->busy_cycles();
  last_run_.interp_scheduler_busy =
      handles.interp_pool.distributor->busy_cycles();
  last_run_.span = sim_result.end_cycle;
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
