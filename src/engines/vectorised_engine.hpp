/// \file vectorised_engine.hpp
/// The "Vectorisation of dataflow engine" (paper Table I, row 5; Fig. 3).
///
/// The hazard-integration and rate-interpolation sub-functions -- the only
/// stages needing many cycles per time point -- are replicated
/// `vector_lanes` times (paper: six). A round-robin scheduler streams each
/// lane its input data from dual-ported URAM curve replicas and the
/// defaulting-probability/discount stages consume lane results cyclically,
/// preserving order. Because the URAM ports feed at most two curve elements
/// per cycle into a pool, six lanes deliver ~2x, exactly as the paper
/// reports; the lane-sweep ablation shows the saturation.

#pragma once

#include "cds/curve.hpp"
#include "engines/engine.hpp"
#include "engines/stage_library.hpp"

namespace cdsflow::engine {

class VectorisedEngine final : public Engine {
 public:
  VectorisedEngine(cds::TermStructure interest, cds::TermStructure hazard,
                   FpgaEngineConfig config = {});

  std::string name() const override { return "vectorised"; }
  std::string description() const override;

  PricingRun price(std::span<const cds::CdsOption> options) override;

  /// Per-lane busy cycles from the most recent run (Fig. 3 bench).
  struct LaneStats {
    std::vector<sim::Cycle> hazard_lane_busy;
    std::vector<sim::Cycle> interp_lane_busy;
    sim::Cycle hazard_scheduler_busy = 0;
    sim::Cycle interp_scheduler_busy = 0;
    sim::Cycle span = 0;
    /// Per-option end-to-end latency in kernel cycles, submission order.
    std::vector<sim::Cycle> option_latency_cycles;
  };
  const LaneStats& last_run() const { return last_run_; }

 private:
  cds::TermStructure interest_;
  cds::TermStructure hazard_;
  FpgaEngineConfig config_;
  LaneStats last_run_;
};

}  // namespace cdsflow::engine
