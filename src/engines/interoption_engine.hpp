/// \file interoption_engine.hpp
/// The "Dataflow inter-options" engine (paper Table I, row 4).
///
/// The dataflow region runs continuously: options are streamed in and
/// spreads streamed out, every stage knows the batch size, and the pipelines
/// stay full across option boundaries. Removing the per-option restart
/// roughly doubled throughput in the paper -- here the same effect falls out
/// of running one free-running simulation for the whole batch.

#pragma once

#include "cds/curve.hpp"
#include "engines/engine.hpp"
#include "engines/stage_library.hpp"

namespace cdsflow::engine {

class InterOptionEngine final : public Engine {
 public:
  InterOptionEngine(cds::TermStructure interest, cds::TermStructure hazard,
                    FpgaEngineConfig config = {});

  std::string name() const override { return "dataflow-interoption"; }
  std::string description() const override {
    return "Free-running dataflow engine (options stream through, no "
           "restarts)";
  }

  PricingRun price(std::span<const cds::CdsOption> options) override;

  /// Graph handles of the most recent run (stall counters, stage busy
  /// cycles) -- valid only until the next price() call. The simulation
  /// itself is destroyed, so only the aggregate data copied into `LastRun`
  /// survives.
  struct LastRunStats {
    std::uint64_t total_time_points = 0;
    sim::Cycle hazard_busy = 0;
    sim::Cycle interp_busy = 0;
    /// Per-option end-to-end latency in kernel cycles, submission order.
    std::vector<sim::Cycle> option_latency_cycles;
  };
  const LastRunStats& last_run() const { return last_run_; }

 private:
  cds::TermStructure interest_;
  cds::TermStructure hazard_;
  FpgaEngineConfig config_;
  LastRunStats last_run_;
};

}  // namespace cdsflow::engine
