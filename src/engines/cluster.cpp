#include "engines/cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cdsflow::engine {

ClusterEngine::ClusterEngine(cds::TermStructure interest,
                             cds::TermStructure hazard, ClusterConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      config_(std::move(config)) {
  interest_.validate();
  hazard_.validate();
  CDSFLOW_EXPECT(config_.n_cards >= 1, "cluster needs at least one card");
  CDSFLOW_EXPECT(config_.host_fanout_s_per_extra_card >= 0.0,
                 "fan-out cost cannot be negative");
  // Validate the per-card configuration once (fit check etc.).
  MultiEngine probe(interest_, hazard_, config_.per_card);
}

std::string ClusterEngine::name() const {
  return "cluster-" + std::to_string(config_.n_cards) + "x" +
         std::to_string(config_.per_card.n_engines);
}

std::string ClusterEngine::description() const {
  return std::to_string(config_.n_cards) + " card(s) x " +
         std::to_string(config_.per_card.n_engines) +
         " engine(s), options scattered across independent PCIe links";
}

PricingRun ClusterEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  const unsigned cards = config_.n_cards;
  CDSFLOW_EXPECT(options.size() >=
                     static_cast<std::size_t>(cards) *
                         config_.per_card.n_engines,
                 "fewer options than engines across the cluster");

  PricingRun run;
  run.results.reserve(options.size());

  const std::size_t base = options.size() / cards;
  const std::size_t extra = options.size() % cards;

  double max_card_seconds = 0.0;
  sim::Cycle max_card_cycles = 0;
  std::size_t begin = 0;
  for (unsigned card = 0; card < cards; ++card) {
    const std::size_t len = base + (card < extra ? 1 : 0);
    const auto chunk = options.subspan(begin, len);
    begin += len;

    // Each card independently pays its own PCIe transfer + arbitration
    // (MultiEngine already accounts both for its chunk).
    MultiEngine engine(interest_, hazard_, config_.per_card);
    const PricingRun card_run = engine.price(chunk);
    max_card_seconds = std::max(max_card_seconds, card_run.total_seconds);
    max_card_cycles = std::max(max_card_cycles, card_run.kernel_cycles);
    run.results.insert(run.results.end(), card_run.results.begin(),
                       card_run.results.end());
  }
  CDSFLOW_ASSERT(run.results.size() == options.size(),
                 "cluster chunks must cover every option exactly once");

  run.kernel_cycles = max_card_cycles;
  run.kernel_seconds = max_card_seconds;  // slowest card gates the batch
  run.transfer_seconds =
      config_.host_fanout_s_per_extra_card * (cards - 1);
  run.invocations = cards;
  run.finalise(options.size());
  return run;
}

}  // namespace cdsflow::engine
