/// \file dataflow_engine.hpp
/// The "Optimised Dataflow CDS engine" (paper Table I, row 3).
///
/// First rewrite: the components become concurrently running dataflow
/// functions connected by streams (HLS DATAFLOW) and the hazard accumulation
/// uses the Listing 1 partial sums (II=1). The engine still processes one
/// option per kernel invocation, so between options the region drains, shuts
/// down, and pays the host restart -- the overhead the next engine removes.

#pragma once

#include "cds/curve.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

class DataflowEngine final : public Engine {
 public:
  DataflowEngine(cds::TermStructure interest, cds::TermStructure hazard,
                 FpgaEngineConfig config = {});

  std::string name() const override { return "dataflow"; }
  std::string description() const override {
    return "Optimised dataflow engine (streams + Listing 1, restart per "
           "option)";
  }

  PricingRun price(std::span<const cds::CdsOption> options) override;

 private:
  cds::TermStructure interest_;
  cds::TermStructure hazard_;
  FpgaEngineConfig config_;
};

}  // namespace cdsflow::engine
