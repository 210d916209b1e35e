#include "cds/risk.hpp"

#include <cmath>

#include "cds/legs.hpp"
#include "common/error.hpp"

namespace cdsflow::cds {

TermStructure parallel_bump(const TermStructure& curve, double bump) {
  curve.validate();
  CDSFLOW_EXPECT(std::isfinite(bump), "curve bump must be finite");
  std::vector<double> values = curve.values();
  for (auto& v : values) v += bump;
  return TermStructure(curve.times(), std::move(values));
}

TermStructure bucket_bump(const TermStructure& curve, double t_lo,
                          double t_hi, double bump) {
  curve.validate();
  CDSFLOW_EXPECT(std::isfinite(bump), "curve bump must be finite");
  CDSFLOW_EXPECT(std::isfinite(t_lo) && !std::isnan(t_hi),
                 "bucket bump t_lo must be finite and t_hi not NaN (t_hi may "
                 "be +inf)");
  CDSFLOW_EXPECT(t_lo < t_hi, "bucket bump range is inverted");
  std::vector<double> values = curve.values();
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve.time(i) >= t_lo && curve.time(i) < t_hi) values[i] += bump;
  }
  return TermStructure(curve.times(), std::move(values));
}

namespace {

double spread_of(const TermStructure& interest, const TermStructure& hazard,
                 const CdsOption& option) {
  return price_breakdown(interest, hazard, option).spread_bps;
}

}  // namespace

Sensitivities compute_sensitivities(const TermStructure& interest,
                                    const TermStructure& hazard,
                                    const CdsOption& option, double bump) {
  CDSFLOW_EXPECT(bump > 0.0 && std::isfinite(bump),
                 "sensitivity bump must be positive and finite");
  option.validate();

  Sensitivities out;
  out.spread_bps = spread_of(interest, hazard, option);
  // JTD: the engine quotes fair spreads, so the contract marks at zero and
  // jump-to-default is exactly the protection payout.
  out.jtd = 1.0 - option.recovery_rate;

  // CS01: central difference in the hazard curve, scaled to a 1 bp bump.
  {
    const double up = spread_of(interest, parallel_bump(hazard, bump), option);
    const double dn =
        spread_of(interest, parallel_bump(hazard, -bump), option);
    out.cs01 = (up - dn) / (2.0 * bump) * 1e-4;
  }
  // IR01: central difference in the rates curve.
  {
    const double up = spread_of(parallel_bump(interest, bump), hazard, option);
    const double dn =
        spread_of(parallel_bump(interest, -bump), hazard, option);
    out.ir01 = (up - dn) / (2.0 * bump) * 1e-4;
  }
  // Rec01: central difference in recovery, scaled to +1% absolute.
  {
    CdsOption up_opt = option;
    CdsOption dn_opt = option;
    const double rb = std::min(bump, 0.5 * (1.0 - option.recovery_rate));
    up_opt.recovery_rate = option.recovery_rate + rb;
    dn_opt.recovery_rate = std::max(0.0, option.recovery_rate - rb);
    const double up = spread_of(interest, hazard, up_opt);
    const double dn = spread_of(interest, hazard, dn_opt);
    out.rec01 = (up - dn) /
                (up_opt.recovery_rate - dn_opt.recovery_rate) * 0.01;
  }
  return out;
}

void validate_ladder_edges(const std::vector<double>& bucket_edges) {
  CDSFLOW_EXPECT(bucket_edges.size() >= 2, "ladder needs >= 2 bucket edges");
  CDSFLOW_EXPECT(std::isfinite(bucket_edges.front()),
                 "the first bucket edge must be finite");
  for (std::size_t i = 1; i < bucket_edges.size(); ++i) {
    CDSFLOW_EXPECT(bucket_edges[i] > bucket_edges[i - 1],
                   "bucket edges must be increasing");
  }
}

std::vector<double> cs01_ladder(const TermStructure& interest,
                                const TermStructure& hazard,
                                const CdsOption& option,
                                const std::vector<double>& bucket_edges,
                                double bump) {
  validate_ladder_edges(bucket_edges);
  CDSFLOW_EXPECT(bump > 0.0 && std::isfinite(bump),
                 "sensitivity bump must be positive and finite");

  std::vector<double> ladder;
  ladder.reserve(bucket_edges.size() - 1);
  for (std::size_t b = 0; b + 1 < bucket_edges.size(); ++b) {
    const double lo = bucket_edges[b];
    const double hi = bucket_edges[b + 1];
    const double up =
        spread_of(interest, bucket_bump(hazard, lo, hi, bump), option);
    const double dn =
        spread_of(interest, bucket_bump(hazard, lo, hi, -bump), option);
    ladder.push_back((up - dn) / (2.0 * bump) * 1e-4);
  }
  return ladder;
}

}  // namespace cdsflow::cds
