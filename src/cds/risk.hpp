/// \file risk.hpp
/// Finite-difference credit risk sensitivities -- the post-pricing workflow
/// the engine exists to accelerate (a desk reprices its book under bumped
/// curves after every batch).
///
/// Conventions:
///   * CS01  -- change in spread (bps) for a +1 bp parallel shift of the
///              hazard curve's rates.
///   * IR01  -- change in spread (bps) for a +1 bp parallel shift of the
///              interest-rate curve.
///   * Rec01 -- change in spread (bps) for a +1% (absolute) recovery bump.
///   * JTD   -- jump-to-default: the protection payout (1 - R) per unit
///              notional on an immediate default. The engine quotes *fair*
///              spreads (the contract carries no off-market coupon), so the
///              mark-to-market term of the usual JTD definition is zero and
///              the payout is exact, not a finite difference.
/// All bumped figures are computed by central differences on the golden
/// model; the bucketed ladder bumps one curve segment at a time.
///
/// Preconditions (validated, not assumed): the input curves must satisfy the
/// TermStructure invariants -- at least one knot, strictly increasing
/// non-negative times -- and every bump/edge must be finite. A curve bumped
/// by NaN/inf would silently poison every downstream spread, so the bump
/// helpers reject such inputs up front instead of producing garbage curves.
///
/// The batched counterpart over the fast-path grids is
/// BatchPricer::price_with_sensitivities (cds/batch_pricer.hpp); it bumps
/// each *unique schedule grid* once instead of repricing per option and is
/// bit-consistent with these reference functions (tests hold it to 1e-12
/// relative).

#pragma once

#include <vector>

#include "cds/curve.hpp"
#include "cds/types.hpp"

namespace cdsflow::cds {

struct Sensitivities {
  double spread_bps = 0.0;
  double cs01 = 0.0;   ///< d(spread)/d(hazard), per 1 bp parallel bump
  double ir01 = 0.0;   ///< d(spread)/d(rates), per 1 bp parallel bump
  double rec01 = 0.0;  ///< d(spread)/d(recovery), per +1% recovery
  double jtd = 0.0;    ///< protection payout (1 - R) on immediate default
};

/// Returns `curve` with `bump` added to every value (parallel shift).
/// `curve` must satisfy the TermStructure invariants and `bump` must be
/// finite; both are validated.
TermStructure parallel_bump(const TermStructure& curve, double bump);

/// Returns `curve` with `bump` added to values whose times fall in
/// [t_lo, t_hi) (bucket shift). `curve` must satisfy the TermStructure
/// invariants; `t_lo < t_hi` and all of `t_lo`, `t_hi`, `bump` must be
/// finite (`t_hi` may be +inf to mean "to the end of the curve"). All
/// validated.
TermStructure bucket_bump(const TermStructure& curve, double t_lo,
                          double t_hi, double bump);

/// Central-difference sensitivities of one option.
Sensitivities compute_sensitivities(const TermStructure& interest,
                                    const TermStructure& hazard,
                                    const CdsOption& option,
                                    double bump = 1e-4);

/// Throws unless `bucket_edges` is a valid ladder: at least two edges,
/// strictly increasing (NaNs fail the comparison and are rejected), the
/// first finite (only the last may be +inf). The one home of the edge
/// contract, shared by cs01_ladder, the batched risk kernel and the
/// risk-mode engine and stream configs.
void validate_ladder_edges(const std::vector<double>& bucket_edges);

/// Bucketed CS01 ladder: spread change per +1 bp hazard bump in each
/// [bucket_edges[i], bucket_edges[i+1]) segment. Returns one value per
/// bucket (edges must satisfy validate_ladder_edges).
std::vector<double> cs01_ladder(const TermStructure& interest,
                                const TermStructure& hazard,
                                const CdsOption& option,
                                const std::vector<double>& bucket_edges,
                                double bump = 1e-4);

}  // namespace cdsflow::cds
