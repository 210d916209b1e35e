#include "engines/multi_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "engines/interoption_engine.hpp"
#include "engines/vectorised_engine.hpp"

namespace cdsflow::engine {

MultiEngine::MultiEngine(cds::TermStructure interest,
                         cds::TermStructure hazard, MultiEngineConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      config_(std::move(config)) {
  interest_.validate();
  hazard_.validate();
  CDSFLOW_EXPECT(config_.n_engines >= 1, "need at least one engine");
  if (config_.device.has_value()) {
    const fpga::ResourceEstimator estimator(*config_.device);
    CDSFLOW_EXPECT(
        estimator.fits(shape(), config_.n_engines),
        std::to_string(config_.n_engines) + " engines do not fit on " +
            config_.device->name +
            " (max " +
            std::to_string(estimator.max_engines(shape())) + ")");
  }
}

fpga::EngineShape MultiEngine::shape() const {
  fpga::EngineShape s;
  const unsigned lanes =
      config_.vectorised ? config_.engine.vector_lanes : 1;
  s.hazard_lanes = lanes;
  s.interpolation_lanes = lanes;
  s.accumulation_lanes = config_.engine.cost.listing1_lanes;
  s.curve_points = static_cast<unsigned>(interest_.size());
  s.dataflow_plumbing = true;
  return s;
}

std::string MultiEngine::name() const {
  return "multi-" + std::to_string(config_.n_engines);
}

std::string MultiEngine::description() const {
  return std::to_string(config_.n_engines) + " " +
         (config_.vectorised ? std::string("vectorised")
                             : std::string("free-running")) +
         " engine(s), options split in chunks";
}

PricingRun MultiEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  const unsigned n = config_.n_engines;
  const std::size_t count = options.size();
  CDSFLOW_EXPECT(count >= n,
                 "fewer options than engines; reduce engine count");

  PricingRun run;
  run.results.reserve(count);

  // Contiguous chunks, remainder spread over the first engines.
  const std::size_t base = count / n;
  const std::size_t extra = count % n;

  // Sub-engines account kernel cycles only; the batch-level transfers and
  // arbitration are charged once below.
  FpgaEngineConfig sub_cfg = config_.engine;
  sub_cfg.include_transfer = false;
  sub_cfg.trace = nullptr;

  sim::Cycle max_cycles = 0;
  std::size_t begin = 0;
  for (unsigned e = 0; e < n; ++e) {
    const std::size_t len = base + (e < extra ? 1 : 0);
    const auto chunk = options.subspan(begin, len);
    begin += len;

    PricingRun chunk_run;
    if (config_.vectorised) {
      VectorisedEngine engine(interest_, hazard_, sub_cfg);
      chunk_run = engine.price(chunk);
    } else {
      InterOptionEngine engine(interest_, hazard_, sub_cfg);
      chunk_run = engine.price(chunk);
    }
    max_cycles = std::max(max_cycles, chunk_run.kernel_cycles);
    run.results.insert(run.results.end(), chunk_run.results.begin(),
                       chunk_run.results.end());
  }
  CDSFLOW_ASSERT(run.results.size() == count,
                 "multi-engine chunks must cover every option exactly once");

  run.kernel_cycles = max_cycles;
  run.invocations = n;
  run.kernel_seconds =
      static_cast<double>(max_cycles) / config_.engine.clock_hz();
  const fpga::Interconnect pcie(config_.engine.interconnect);
  if (config_.engine.include_transfer) {
    run.transfer_seconds =
        pcie.transfer_seconds(batch_traffic(interest_.size(), count).total());
  }
  run.transfer_seconds += pcie.arbitration_seconds(count, n);
  run.finalise(count);
  return run;
}

}  // namespace cdsflow::engine
