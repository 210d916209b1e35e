/// \file stream_pricer.hpp
/// Persistent-grid streaming pricer: BatchPricer semantics with the grid
/// cache retained across micro-batches and hazard-quote updates applied
/// incrementally.
///
/// The batch pricer (cds/batch_pricer.hpp) rebuilds its dedup map and curve
/// grids on every call -- the right contract for one-shot portfolio pricing,
/// the wrong one for a live AAT-style feed where micro-batches arrive every
/// few hundred microseconds and mostly repeat the same standard-tenor
/// schedules. This pricer keeps the unique-schedule grids alive across
/// calls:
///
///   * *Cross-batch dedup.* The first micro-batch on a tenor book tabulates
///     its handful of grids; every later batch prices as pure O(1) combines
///     against the cached sums. Steady-state cost per option is therefore
///     the same as (or below) the batch kernel's, which re-tabulates per
///     batch.
///   * *Incremental hazard-quote updates.* The hazard curve is
///     piecewise-constant: rate h_k applies on (tau_{k-1}, tau_k], so moving
///     quote k changes the integrated hazard -- and hence Q(t) -- only for
///     t > tau_{k-1}. update_hazard_quote() rebuilds the O(knots) prefix
///     table (cheap: one multiply-add per knot, no exp), re-tabulates the
///     survival of each payment ladder's points past tau_{k-1} and rescans
///     its running leg sums from the first of them, then re-tabulates the
///     stub and sums of only the cached grids whose maturity extends past
///     tau_{k-1}. It reuses the discount columns (the interest curve did
///     not move) and the cache's knot-search tables (the knot times did not
///     move). Points at or below the threshold keep survival values that
///     are bit-identical to what a full rebuild would produce, because the
///     prefix sums below the moved knot accumulate the same terms in the
///     same order -- so the incremental state is bit-consistent with a
///     freshly-built BatchPricer on the updated curve (asserted by
///     tests/test_stream_pricer.cpp).
///
/// The pricer owns no grid code of its own: it holds one BatchPricer on the
/// current curves and one BatchPricer::Workspace that it never clears, so
/// BatchPricer::build_grids -- the one home of dedup and tabulation --
/// appends the grids a micro-batch introduces (extending a ladder in place
/// when a grid needs more of its points) and reuses the rest. A
/// hazard-quote update replaces the BatchPricer and re-tabulates the
/// moved survival values in place.
///
/// Risk mode reuses the batched Greeks kernel: price_with_sensitivities()
/// delegates each micro-batch to the same BatchPricer's
/// price_with_sensitivities on its own warm RiskWorkspace.
///
/// Thread compatibility matches BatchPricer's workspaces: one StreamPricer
/// per concurrent caller (the stream runtime holds one replica per lane and
/// applies quote updates to every replica at a batch barrier).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/hazard.hpp"
#include "cds/risk.hpp"
#include "cds/types.hpp"

namespace cdsflow::cds {

struct StreamPricerConfig {
  /// Compute per-option Greeks per micro-batch (the streaming risk feed).
  bool risk_mode = false;
  /// Central-difference bump for risk mode (compute_sensitivities default).
  double risk_bump = 1e-4;
  /// CS01 ladder bucket edges for risk mode; empty disables the ladder.
  std::vector<double> ladder_edges;
  /// SIMD tier of the grid tabulations and per-option combines
  /// (cds/vector_kernel.hpp; clamped to the host), the BatchPricer's
  /// kernel_level: kScalar is bit-identical to the scalar reference, vector
  /// levels hold VectorKernelContract against it. Risk mode runs the
  /// batched Greeks kernel at the same level.
  simd::Level kernel_level = simd::Level::kScalar;
};

/// Lifetime accounting of one stream pricer replica.
struct StreamPricerStats {
  std::uint64_t options_priced = 0;
  std::uint64_t batches = 0;
  /// Distinct (maturity, frequency) grids currently cached.
  std::size_t cached_grids = 0;
  /// Points tabulated across the cache: its ladders plus one stub per grid.
  std::size_t grid_points = 0;
  /// Hazard-quote updates applied.
  std::uint64_t hazard_updates = 0;
  /// Grids re-tabulated by those updates (<= hazard_updates * cached_grids;
  /// the gap is the work incrementality saved).
  std::uint64_t grids_retabulated = 0;
  /// Grid tabulations a per-update full rebuild would have performed.
  std::uint64_t full_rebuild_grids = 0;
};

class StreamPricer {
 public:
  /// Both curves are copied into the BatchPricer, which validates the
  /// interest curve and builds the hazard prefix table.
  StreamPricer(TermStructure interest, TermStructure hazard,
               StreamPricerConfig config = {});

  /// Prices one micro-batch into out[i] (ids preserved, batch order).
  /// Unique grids accumulate in the cache across calls; spreads are
  /// bit-identical to BatchPricer::price on the current curves.
  void price(std::span<const CdsOption> options, std::span<SpreadResult> out);

  /// Risk-mode micro-batch: spreads + per-option CS01/IR01/Rec01/JTD (and,
  /// when the config carries ladder edges, the bucketed CS01 ladder,
  /// row-major per option). Requires config.risk_mode; delegates to the
  /// batched Greeks kernel on the current curves, so results are
  /// bit-consistent with BatchPricer::price_with_sensitivities.
  void price_with_sensitivities(std::span<const CdsOption> options,
                                std::span<SpreadResult> out,
                                std::span<Sensitivities> sensitivities,
                                std::span<double> ladder_out);

  /// Applies a hazard-quote update: replaces knot `knot`'s rate with `rate`
  /// (finite, positive) and re-tabulates the ladder points past the
  /// preceding knot and only the cached grids whose maturity extends past
  /// it. Returns the number of grids re-tabulated. O(knots + moved ladder
  /// points + affected grids); bit-consistent with a full rebuild on the
  /// updated curve.
  std::size_t update_hazard_quote(std::size_t knot, double rate);

  const TermStructure& interest() const { return pricer_.interest(); }
  const TermStructure& hazard() const { return pricer_.hazard(); }
  const StreamPricerConfig& config() const { return config_; }
  bool risk_mode() const { return config_.risk_mode; }
  /// Buckets per option that price_with_sensitivities writes (0 without a
  /// ladder).
  std::size_t ladder_buckets() const {
    return config_.ladder_edges.empty() ? 0 : config_.ladder_edges.size() - 1;
  }
  const StreamPricerStats& stats() const { return stats_; }

 private:
  StreamPricerConfig config_;
  /// The batch kernel on the current curves; update_hazard_quote replaces
  /// it.
  BatchPricer pricer_;
  /// Persistent grid cache, never cleared between batches (grid_of is
  /// per-call scratch). Its search tables serve every pricer_ this stream
  /// holds: a quote update replaces knot values, never knot times.
  BatchPricer::Workspace grids_;
  /// Risk mode: the Greeks kernel's workspace, warm across batches.
  BatchPricer::RiskWorkspace risk_workspace_;
  BatchRiskConfig risk_config_;

  StreamPricerStats stats_;
};

}  // namespace cdsflow::cds
