/// \file xilinx_baseline.hpp
/// Model of the original Xilinx Vitis library CDS engine (paper Fig. 1).
///
/// The open-source library engine favours "flexibility and ease of
/// integration over performance": each model component is a separate
/// pipelined loop, the loops run *sequentially* communicating through
/// arrays, the engine processes one option per kernel invocation, and the
/// hazard accumulation's carried double-precision add forces II=7 on its
/// scan. Total option cost is therefore the *sum* of the component spans
/// (contrast the dataflow engines, where it is the maximum), plus the
/// per-option kernel restart.
///
/// The implementation executes the reference math component-by-component
/// (results are bit-identical to the golden pricer, which uses the same
/// in-order summation) while charging cycles per the loop model; with a
/// trace attached it emits the strictly sequential stage timeline of Fig. 1.

#pragma once

#include "cds/curve.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

class XilinxBaselineEngine final : public Engine {
 public:
  XilinxBaselineEngine(cds::TermStructure interest, cds::TermStructure hazard,
                       FpgaEngineConfig config = {});

  std::string name() const override { return "xilinx-baseline"; }
  std::string description() const override {
    return "Xilinx Vitis library CDS engine (sequential loops, II=7 "
           "accumulation, restart per option)";
  }

  PricingRun price(std::span<const cds::CdsOption> options) override;

  /// Cycle cost of one option under the sequential-loop model (exposed for
  /// tests and the Fig. 1 bench).
  struct StageSpan {
    const char* stage;
    sim::Cycle cycles;
  };
  std::vector<StageSpan> option_stage_spans(const cds::CdsOption& option) const;

 private:
  cds::TermStructure interest_;
  cds::TermStructure hazard_;
  FpgaEngineConfig config_;
};

}  // namespace cdsflow::engine
