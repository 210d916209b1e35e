#include "engines/xilinx_baseline.hpp"

#include "cds/legs.hpp"
#include "cds/pricer.hpp"
#include "cds/schedule.hpp"
#include "common/error.hpp"
#include "hls/dataflow.hpp"

namespace cdsflow::engine {

XilinxBaselineEngine::XilinxBaselineEngine(cds::TermStructure interest,
                                           cds::TermStructure hazard,
                                           FpgaEngineConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      config_(config) {
  interest_.validate();
  hazard_.validate();
}

std::vector<XilinxBaselineEngine::StageSpan>
XilinxBaselineEngine::option_stage_spans(const cds::CdsOption& option) const {
  const auto& cost = config_.cost;
  const auto schedule = cds::make_schedule(option);
  const auto T = static_cast<sim::Cycle>(schedule.size());
  const auto R = static_cast<sim::Cycle>(interest_.size());
  const sim::Cycle lo = cost.loop_overhead_cycles;

  // Hazard scans: for every time point the library re-accumulates the
  // constant data up to t at II=7 (the paper's central bottleneck).
  sim::Cycle hazard_scan = 0;
  for (const auto& tp : schedule) {
    const auto len =
        static_cast<sim::Cycle>(hazard_.count_at_or_before(tp.t)) + 1;
    hazard_scan += len * cost.baseline_accumulation_ii + cost.dexp_latency;
  }

  std::vector<StageSpan> spans;
  spans.push_back({"load_option", 10});
  spans.push_back({"time_points", lo + T + 4});
  spans.push_back({"default_probability", lo + hazard_scan});
  // Payment and payoff loops each re-interpolate the discount rate with a
  // full bracket scan per time point (the dataflow rewrite computes the
  // discount once and streams it).
  const sim::Cycle interp_pass =
      lo + T * (R * cost.interpolation_scan_ii + cost.ddiv_latency +
                cost.dexp_latency + 2 * cost.dmul_latency);
  spans.push_back({"payment_pv", interp_pass});
  spans.push_back({"payoff_pv", interp_pass});
  spans.push_back({"accrual", lo + T + 2 * cost.dmul_latency});
  // Four accumulation loops (premium, accrual, payoff, plus the combined
  // bookkeeping pass), each with the II=7 carried add.
  spans.push_back(
      {"accumulate", 4 * (lo + T * cost.baseline_accumulation_ii +
                          cost.dadd_latency)});
  spans.push_back({"combine_spread",
                   cost.ddiv_latency + 2 * cost.dmul_latency + 10});
  return spans;
}

PricingRun XilinxBaselineEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  PricingRun run;
  run.results.reserve(options.size());

  const cds::ReferencePricer pricer(interest_, hazard_);

  // Trace tracks (shared across options so the Fig. 1 bench can show several
  // options back to back).
  std::vector<std::size_t> tracks;
  if (config_.trace != nullptr) {
    for (const auto& span : option_stage_spans(options.front())) {
      tracks.push_back(config_.trace->add_track(span.stage));
    }
  }

  const hls::RegionRunner runner(
      hls::ExecutionPolicy::kSequentialLoops,
      {config_.cost.region_restart_cycles,
       config_.cost.region_initial_start_cycles});

  sim::Cycle trace_clock = 0;
  const auto region = runner.run(options.size(), [&](std::uint64_t i) {
    const auto& option = options[i];
    // Values: identical operations and order as the golden model.
    run.results.push_back({option.id, pricer.spread_bps(option)});
    // Cycles: sum of the sequential loop spans.
    sim::Cycle total = 0;
    const auto spans = option_stage_spans(option);
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (config_.trace != nullptr) {
        config_.trace->record(tracks[s], trace_clock + total,
                              trace_clock + total + spans[s].cycles);
      }
      total += spans[s].cycles;
    }
    trace_clock += total + config_.cost.region_restart_cycles;
    return total;
  });

  run.kernel_cycles = region.total_cycles;
  run.invocations = region.invocations;
  run.kernel_seconds =
      static_cast<double>(run.kernel_cycles) / config_.clock_hz();
  if (config_.include_transfer) {
    const fpga::Interconnect pcie(config_.interconnect);
    const BatchTraffic traffic =
        batch_traffic(interest_.size(), options.size());
    run.transfer_seconds = pcie.transfer_seconds(traffic.total());
  }
  run.finalise(options.size());
  return run;
}

}  // namespace cdsflow::engine
