#include "cds/stream_pricer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace cdsflow::cds {

StreamPricer::StreamPricer(TermStructure interest, TermStructure hazard,
                           StreamPricerConfig config)
    : config_(std::move(config)),
      pricer_(std::move(interest), std::move(hazard), config_.kernel_level) {
  CDSFLOW_EXPECT(config_.risk_bump > 0.0 && std::isfinite(config_.risk_bump),
                 "sensitivity bump must be positive and finite");
  if (!config_.ladder_edges.empty()) {
    validate_ladder_edges(config_.ladder_edges);
  }
  risk_config_.bump = config_.risk_bump;
  risk_config_.ladder_edges = config_.ladder_edges;
}

void StreamPricer::price(std::span<const CdsOption> options,
                         std::span<SpreadResult> out) {
  CDSFLOW_EXPECT(out.size() == options.size(),
                 "stream price() needs out.size() == options.size()");
  // Pass 1-2 against the *persistent* cache: new (maturity, frequency)
  // pairs tabulate a stub (and any ladder points they add) that then serve
  // every later batch. Column bits do not depend on which call tabulated a
  // point, so extending the cache matches a batch rebuild.
  pricer_.build_grids(options, grids_);
  // Pass 3 -- the batch kernel's per-option combine.
  simd::combine_spreads(options, grids_.grid_of, grids_.grid_annuity,
                        grids_.grid_payoff, out, pricer_.kernel_level());

  stats_.options_priced += options.size();
  stats_.batches += 1;
  stats_.cached_grids = grids_.grid_maturity.size();
  stats_.grid_points = grids_.tabulated_points();
}

void StreamPricer::price_with_sensitivities(
    std::span<const CdsOption> options, std::span<SpreadResult> out,
    std::span<Sensitivities> sensitivities, std::span<double> ladder_out) {
  CDSFLOW_EXPECT(config_.risk_mode,
                 "price_with_sensitivities needs a risk-mode stream pricer");
  CDSFLOW_EXPECT(sensitivities.size() == options.size(),
                 "stream risk needs sensitivities.size() == options.size()");
  // Spreads via the incremental grid cache (also registers new grids so
  // spread-path accounting stays exact in mixed streams) ...
  price(options, out);
  // ... Greeks via the batched risk kernel on the current curves. The
  // per-option spread it computes is bit-identical to the combine above, so
  // sensitivities[i].spread_bps == out[i].spread_bps.
  pricer_.price_with_sensitivities(options, sensitivities, ladder_out,
                                   risk_workspace_, risk_config_);
}

std::size_t StreamPricer::update_hazard_quote(std::size_t knot, double rate) {
  const TermStructure& hazard = pricer_.hazard();
  CDSFLOW_EXPECT(knot < hazard.size(),
                 "hazard-quote update knot out of range");
  CDSFLOW_EXPECT(std::isfinite(rate) && rate > 0.0,
                 "hazard-quote update rate must be positive and finite");
  std::vector<double> values = hazard.values();
  values[knot] = rate;
  // Rate h_k applies on (tau_{k-1}, tau_k], so Lambda(t) -- and Q(t) --
  // moved only for t > tau_{k-1}: grids whose maturity (= last schedule
  // point) stays at or below that threshold keep bit-identical columns and
  // sums. knot == 0 moves the very first segment, so everything with t > 0
  // (every schedule point) is affected.
  const double affected_past = knot == 0 ? 0.0 : hazard.time(knot - 1);
  pricer_ = BatchPricer(pricer_.interest(),
                        TermStructure(hazard.times(), std::move(values)),
                        pricer_.kernel_level());

  // The moved survival values: each ladder's points past the threshold,
  // whose running sums are then rescanned from the first of them, and the
  // stubs of the grids whose maturity is past it, whose sums follow. The
  // discount columns stay (the interest curve did not move). The knot times
  // did not move either, so prepare() finds the cache's search tables still
  // valid (it builds them only if nothing was tabulated yet, for the next
  // batch). Only tabulated grids are walked: a batch that threw in dedup
  // leaves grids registered without a stub, and build_grids tabulates
  // those on the current curves when they are next priced.
  const HazardPrefix& prefix = pricer_.hazard_prefix();
  const simd::Level level = pricer_.kernel_level();
  grids_.search.prepare(pricer_.interest(), prefix, level);
  for (BatchPricer::Ladder& ladder : grids_.ladders) {
    const auto points =
        std::span<const TimePoint>(ladder.points).first(ladder.sums.size());
    const auto from = static_cast<std::size_t>(
        std::upper_bound(points.begin(), points.end(), affected_past,
                         [](double t, const TimePoint& p) { return t < p.t; }) -
        points.begin());
    if (from == points.size()) continue;
    simd::survival_column(prefix, grids_.search.hazard, points.subspan(from),
                          std::span(ladder.survival).subspan(from), level);
    detail::scan_leg_sums(points, ladder.discount, ladder.survival, from,
                          ladder.sums);
  }
  std::size_t retabulated = 0;
  const std::size_t n_grids = grids_.tabulated_grids();
  for (std::size_t g = 0; g < n_grids; ++g) {
    if (grids_.grid_maturity[g] <= affected_past) continue;
    simd::survival_column(prefix, grids_.search.hazard,
                          std::span(grids_.stub).subspan(g, 1),
                          std::span(grids_.stub_survival).subspan(g, 1),
                          level);
    const detail::GridSums sums = grids_.grid_sums(g);
    grids_.grid_annuity[g] = sums.annuity;
    grids_.grid_payoff[g] = sums.payoff;
    ++retabulated;
  }
  stats_.hazard_updates += 1;
  stats_.grids_retabulated += retabulated;
  stats_.full_rebuild_grids += n_grids;
  return retabulated;
}

}  // namespace cdsflow::cds
