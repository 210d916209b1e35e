/// \file multi_engine.hpp
/// Scaling up: several CDS engines on one card (paper Sec. IV, Table II).
///
/// "There are no dependencies between calculations involving different
/// options, and as such we decomposed based upon the options themselves,
/// splitting the entire set up into N chunks." Each chunk runs on its own
/// engine instance (every engine holds the full curve data in URAM, loaded
/// at initialisation); batch kernel time is the maximum over engines, and
/// the shared PCIe/DMA infrastructure charges an arbitration cost per option
/// per extra engine (calibrated in fpga::HlsCostModel).
///
/// When a DeviceSpec is supplied the constructor refuses engine counts that
/// do not place-and-route -- the reproduction of "being able to fit five
/// onto the Alveo U280".

#pragma once

#include <memory>
#include <optional>

#include "cds/curve.hpp"
#include "engines/engine.hpp"
#include "fpga/device.hpp"
#include "fpga/resource.hpp"

namespace cdsflow::engine {

struct MultiEngineConfig {
  FpgaEngineConfig engine;
  unsigned n_engines = 5;
  /// Use the vectorised engine per instance (the paper's Table II setup);
  /// false selects the plain free-running engine.
  bool vectorised = true;
  /// When set, the constructor enforces the resource fit check.
  std::optional<fpga::DeviceSpec> device;
};

class MultiEngine final : public Engine {
 public:
  MultiEngine(cds::TermStructure interest, cds::TermStructure hazard,
              MultiEngineConfig config);

  std::string name() const override;
  std::string description() const override;

  PricingRun price(std::span<const cds::CdsOption> options) override;

  unsigned n_engines() const { return config_.n_engines; }

  /// The EngineShape matching this configuration (resource estimation).
  fpga::EngineShape shape() const;

 private:
  cds::TermStructure interest_;
  cds::TermStructure hazard_;
  MultiEngineConfig config_;
};

}  // namespace cdsflow::engine
