/// \file cluster.hpp
/// Cluster-level scaling: many accelerator cards across HPC nodes.
///
/// The paper's motivation is "batch processing of financial data on HPC
/// machines" (Sec. I) and it saturates a single U280; the obvious next rung
/// -- and the venue's (IEEE CLUSTER) natural question -- is multi-card
/// scaling. Options partition across cards exactly as they partition across
/// engines within a card (no inter-option dependencies); each card runs an
/// independent MultiEngine with its own PCIe link, so cards scale almost
/// perfectly, degraded only by the host-side fan-out/collection cost per
/// card modelled here.

#pragma once

#include "cds/curve.hpp"
#include "engines/engine.hpp"
#include "engines/multi_engine.hpp"

namespace cdsflow::engine {

struct ClusterConfig {
  /// Cards (each an Alveo U280 with `per_card.n_engines` engines).
  unsigned n_cards = 2;
  /// Per-card configuration (engines per card, device fit check, etc.).
  MultiEngineConfig per_card;
  /// Host-side fan-out/collection overhead per card beyond the first:
  /// scatter/gather of option chunks over independent PCIe links plus the
  /// batch barrier (order ~100 us of host work per card).
  double host_fanout_s_per_extra_card = 100.0e-6;
};

class ClusterEngine final : public Engine {
 public:
  ClusterEngine(cds::TermStructure interest, cds::TermStructure hazard,
                ClusterConfig config);

  std::string name() const override;
  std::string description() const override;

  PricingRun price(std::span<const cds::CdsOption> options) override;

  unsigned n_cards() const { return config_.n_cards; }
  unsigned total_engines() const {
    return config_.n_cards * config_.per_card.n_engines;
  }

 private:
  cds::TermStructure interest_;
  cds::TermStructure hazard_;
  ClusterConfig config_;
};

}  // namespace cdsflow::engine
