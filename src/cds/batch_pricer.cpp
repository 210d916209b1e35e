#include "cds/batch_pricer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cds/legs.hpp"
#include "common/error.hpp"

namespace cdsflow::cds {

namespace detail {

LegSums reduce_leg_sums(std::span<const TimePoint> points,
                        std::span<const double> discount,
                        std::span<const double> survival) {
  LegSums sums;
  double q_prev = 1.0;  // Q(0)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LegTerms terms =
        leg_terms_from_discount(discount[i], q_prev, survival[i], points[i].dt);
    sums.premium += terms.premium;
    sums.accrual += terms.accrual;
    sums.payoff += terms.payoff;
    q_prev = survival[i];
  }
  return sums;
}

GridSums checked_grid_sums(const LegSums& sums) {
  const double annuity = sums.premium + sums.accrual;
  CDSFLOW_EXPECT(annuity > 0.0,
                 "risky annuity must be positive to quote a spread");
  return {annuity, sums.payoff};
}

GridSums finish_grid(std::span<const TimePoint> points,
                     std::span<const double> discount,
                     std::span<const double> survival,
                     std::span<double> default_mass) {
  CDSFLOW_ASSERT(discount.size() == points.size() &&
                     survival.size() == points.size() &&
                     default_mass.size() == points.size(),
                 "grid column spans must match the schedule length");
  LegSums sums;
  double q_prev = 1.0;  // Q(0)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double q = survival[i];
    default_mass[i] = q_prev - q;
    const LegTerms terms =
        leg_terms_from_discount(discount[i], q_prev, q, points[i].dt);
    sums.premium += terms.premium;
    sums.accrual += terms.accrual;
    sums.payoff += terms.payoff;
    q_prev = q;
  }
  return checked_grid_sums(sums);
}

}  // namespace detail

void BatchPricer::Workspace::clear() {
  grid_of.clear();
  grid_maturity.clear();
  grid_frequency.clear();
  grid_annuity.clear();
  grid_payoff.clear();
  grid_offset.clear();
  points.clear();
  discount.clear();
  survival.clear();
  default_mass.clear();
  dedup.clear();  // keeps the bucket array, so a warmed workspace stays
                  // allocation-free
}

BatchPricer::BatchPricer(TermStructure interest, TermStructure hazard,
                         simd::Level kernel_level)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      hazard_prefix_(make_hazard_prefix(hazard_)),
      kernel_level_(simd::resolve_level(kernel_level)) {
  interest_.validate();
}

void BatchPricer::RiskWorkspace::clear() {
  base.clear();
  annuity_hazard_up.clear();
  payoff_hazard_up.clear();
  annuity_hazard_dn.clear();
  payoff_hazard_dn.clear();
  annuity_interest_up.clear();
  payoff_interest_up.clear();
  annuity_interest_dn.clear();
  payoff_interest_dn.clear();
  ladder_annuity_up.clear();
  ladder_payoff_up.clear();
  ladder_annuity_dn.clear();
  ladder_payoff_dn.clear();
  scenario_col.clear();
}

BatchStats BatchPricer::build_grids(std::span<const CdsOption> options,
                                    Workspace& ws) const {
  BatchStats stats;
  stats.options = options.size();

  // Pass 1 -- dedup: map every option onto a (maturity, frequency) grid id,
  // reusing the grids already in the workspace and appending new ones.
  // Options are validated here, as in the scalar reference.
  ws.grid_of.clear();
  ws.grid_of.reserve(options.size());
  for (const CdsOption& option : options) {
    option.validate();
    const detail::ScheduleKey key{
        std::bit_cast<std::uint64_t>(option.maturity_years),
        std::bit_cast<std::uint64_t>(option.payment_frequency)};
    const auto next_id = static_cast<std::uint32_t>(ws.grid_maturity.size());
    const auto [it, inserted] = ws.dedup.try_emplace(key, next_id);
    if (inserted) {
      ws.grid_maturity.push_back(option.maturity_years);
      ws.grid_frequency.push_back(option.payment_frequency);
    }
    ws.grid_of.push_back(it->second);
  }

  // Pass 2 -- every grid without an offset yet: materialise its schedule
  // into the flat arena, tabulate the D/Q columns in one cds::simd sweep (a
  // single lane tail for the batch instead of one per grid -- on a
  // continuous-maturity book the grids are tiny and per-grid tails would eat
  // most of the lane win), then per grid the default-mass column and the
  // leg sums in the reference order. A call that threw in pass 1 leaves
  // valid grids registered but untabulated; the next call picks them up.
  const std::size_t first_new = ws.grid_offset.size();
  const std::size_t n_grids = ws.grid_maturity.size();
  if (n_grids > first_new) {
    // The knot-search tables: built on the workspace's first vector-level
    // tabulation, rebuilt only when this pricer's knot times differ from
    // the ones they serve. Prepared before the arena is sized: tables
    // allocated above a first-call arena pin the heap top, and the arena's
    // later growth then strands its freed blocks in the heap.
    ws.search.prepare(interest_, hazard_prefix_, kernel_level_);
    // Per-grid arrays sized up front: growing them here while the arena
    // grows strands freed arena blocks in the heap, and a grid that fails
    // its annuity check leaves every per-grid array the same length.
    ws.grid_offset.resize(n_grids);
    ws.grid_annuity.resize(n_grids);
    ws.grid_payoff.resize(n_grids);
    const std::size_t first_point = ws.points.size();
    for (std::size_t g = first_new; g < n_grids; ++g) {
      CdsOption probe;  // schedule depends only on (maturity, frequency)
      probe.maturity_years = ws.grid_maturity[g];
      probe.payment_frequency = ws.grid_frequency[g];
      ws.grid_offset[g] = ws.points.size();
      make_schedule(probe, ws.points);
    }
    const std::size_t arena = ws.points.size();
    ws.discount.resize(arena);
    ws.survival.resize(arena);
    ws.default_mass.resize(arena);
    const auto points = std::span<const TimePoint>(ws.points);
    const auto discount = std::span<double>(ws.discount);
    const auto survival = std::span<double>(ws.survival);
    simd::tabulate_columns(interest_, hazard_prefix_, ws.search,
                           points.subspan(first_point),
                           discount.subspan(first_point),
                           survival.subspan(first_point), kernel_level_);
    for (std::size_t g = first_new; g < n_grids; ++g) {
      const std::size_t begin = ws.grid_offset[g];
      const std::size_t n = ws.grid_end(g) - begin;
      const detail::GridSums sums = detail::finish_grid(
          points.subspan(begin, n), discount.subspan(begin, n),
          survival.subspan(begin, n),
          std::span<double>(ws.default_mass).subspan(begin, n));
      ws.grid_annuity[g] = sums.annuity;
      ws.grid_payoff[g] = sums.payoff;
    }
  }
  stats.unique_schedules = n_grids;
  stats.grid_points = ws.points.size();
  return stats;
}

BatchStats BatchPricer::price(std::span<const CdsOption> options,
                              std::span<SpreadResult> out,
                              Workspace& ws) const {
  CDSFLOW_EXPECT(out.size() == options.size(),
                 "batch price() needs out.size() == options.size()");
  ws.clear();
  BatchStats stats = build_grids(options, ws);

  // Pass 3 -- per option: a branch-free combine against the reduced grid
  // sums, `lanes(level)` options per step. Association order matches
  // combine_spread_bps at every level (see simd::combine_spreads).
  simd::combine_spreads(options, ws.grid_of, ws.grid_annuity, ws.grid_payoff,
                        out, kernel_level_);
  for (const std::uint32_t g : ws.grid_of) {
    stats.scalar_points += ws.grid_end(g) - ws.grid_offset[g];
  }
  return stats;
}

std::vector<SpreadResult> BatchPricer::price(
    const std::vector<CdsOption>& options) const {
  Workspace ws;
  std::vector<SpreadResult> out(options.size());
  price(options, out, ws);
  return out;
}

BatchRiskStats BatchPricer::price_with_sensitivities(
    std::span<const CdsOption> options, std::span<Sensitivities> out,
    std::span<double> ladder_out, RiskWorkspace& ws,
    const BatchRiskConfig& config) const {
  CDSFLOW_EXPECT(out.size() == options.size(),
                 "batch risk needs out.size() == options.size()");
  const double bump = config.bump;
  CDSFLOW_EXPECT(bump > 0.0 && std::isfinite(bump),
                 "sensitivity bump must be positive and finite");
  std::size_t n_buckets = 0;
  if (!config.ladder_edges.empty()) {
    validate_ladder_edges(config.ladder_edges);
    n_buckets = config.ladder_edges.size() - 1;
  }
  CDSFLOW_EXPECT(ladder_out.size() == options.size() * n_buckets,
                 "batch risk needs ladder_out.size() == options * buckets");

  ws.clear();
  BatchRiskStats stats;
  stats.base = build_grids(options, ws.base);
  if (options.empty()) return stats;

  // The bumped curves are built once per *batch*; the scalar loop rebuilds
  // them once per option. A hazard bump never moves the discount column and
  // an interest bump never moves the survival column, so each scenario only
  // re-tabulates the column its bump touches and borrows the other from the
  // base grids.
  const HazardPrefix hazard_up =
      make_hazard_prefix(parallel_bump(hazard_, bump));
  const HazardPrefix hazard_dn =
      make_hazard_prefix(parallel_bump(hazard_, -bump));
  const TermStructure interest_up = parallel_bump(interest_, bump);
  const TermStructure interest_dn = parallel_bump(interest_, -bump);
  std::vector<HazardPrefix> bucket_up, bucket_dn;
  bucket_up.reserve(n_buckets);
  bucket_dn.reserve(n_buckets);
  for (std::size_t b = 0; b < n_buckets; ++b) {
    const double lo = config.ladder_edges[b];
    const double hi = config.ladder_edges[b + 1];
    bucket_up.push_back(
        make_hazard_prefix(bucket_bump(hazard_, lo, hi, bump)));
    bucket_dn.push_back(
        make_hazard_prefix(bucket_bump(hazard_, lo, hi, -bump)));
  }

  // Pass 2b -- one arena-wide column per bumped scenario: the bumped
  // survival for hazard/bucket bumps (base discount reused), the bumped
  // discount for interest bumps (base survival reused), then a per-grid
  // reduction in the reference order. Column-at-a-time keeps the extra
  // scratch at a single arena column regardless of ladder size.
  const std::size_t n_grids = stats.base.unique_schedules;
  ws.annuity_hazard_up.reserve(n_grids);
  ws.payoff_hazard_up.reserve(n_grids);
  ws.annuity_hazard_dn.reserve(n_grids);
  ws.payoff_hazard_dn.reserve(n_grids);
  ws.annuity_interest_up.reserve(n_grids);
  ws.payoff_interest_up.reserve(n_grids);
  ws.annuity_interest_dn.reserve(n_grids);
  ws.payoff_interest_dn.reserve(n_grids);
  ws.scenario_col.resize(ws.base.points.size());
  const auto points = std::span<const TimePoint>(ws.base.points);
  const auto col = std::span<double>(ws.scenario_col);
  // Bumps move knot values, never knot times: every scenario column
  // searches through the tables build_grids prepared for the base curves.
  const simd::SearchTables& search = ws.base.search;

  // Hoisted per grid, exactly like the base pass: the annuity is
  // recovery-free under every scenario (same diagnostic as
  // combine_spread_bps, which the scalar bumped repricings hit).
  const auto reduce_all = [&](std::span<const double> discount,
                              std::span<const double> survival,
                              auto&& store) {
    for (std::size_t g = 0; g < n_grids; ++g) {
      const std::size_t begin = ws.base.grid_offset[g];
      const std::size_t n = ws.base.grid_end(g) - begin;
      store(g, detail::checked_grid_sums(detail::reduce_leg_sums(
                   points.subspan(begin, n), discount.subspan(begin, n),
                   survival.subspan(begin, n))));
    }
  };
  const auto push_into = [](std::vector<double>& annuities,
                            std::vector<double>& payoffs) {
    return [&annuities, &payoffs](std::size_t, const detail::GridSums& s) {
      annuities.push_back(s.annuity);
      payoffs.push_back(s.payoff);
    };
  };

  // Hazard parallel bumps: base discount, bumped survival.
  simd::survival_column(hazard_up, search.hazard, points, col, kernel_level_);
  reduce_all(ws.base.discount, col,
             push_into(ws.annuity_hazard_up, ws.payoff_hazard_up));
  simd::survival_column(hazard_dn, search.hazard, points, col, kernel_level_);
  reduce_all(ws.base.discount, col,
             push_into(ws.annuity_hazard_dn, ws.payoff_hazard_dn));
  // Interest parallel bumps: bumped discount, base survival.
  simd::discount_column(interest_up, search.interest, points, col,
                        kernel_level_);
  reduce_all(col, ws.base.survival,
             push_into(ws.annuity_interest_up, ws.payoff_interest_up));
  simd::discount_column(interest_dn, search.interest, points, col,
                        kernel_level_);
  reduce_all(col, ws.base.survival,
             push_into(ws.annuity_interest_dn, ws.payoff_interest_dn));
  // Ladder bucket bumps: base discount, bucket-bumped survival. The
  // per-(grid, bucket) vectors are row-major per grid, so the per-bucket
  // column sweeps write by index instead of pushing.
  ws.ladder_annuity_up.resize(n_grids * n_buckets);
  ws.ladder_payoff_up.resize(n_grids * n_buckets);
  ws.ladder_annuity_dn.resize(n_grids * n_buckets);
  ws.ladder_payoff_dn.resize(n_grids * n_buckets);
  for (std::size_t b = 0; b < n_buckets; ++b) {
    simd::survival_column(bucket_up[b], search.hazard, points, col,
                          kernel_level_);
    reduce_all(ws.base.discount, col,
               [&](std::size_t g, const detail::GridSums& s) {
                 ws.ladder_annuity_up[g * n_buckets + b] = s.annuity;
                 ws.ladder_payoff_up[g * n_buckets + b] = s.payoff;
               });
    simd::survival_column(bucket_dn[b], search.hazard, points, col,
                          kernel_level_);
    reduce_all(ws.base.discount, col,
               [&](std::size_t g, const detail::GridSums& s) {
                 ws.ladder_annuity_dn[g * n_buckets + b] = s.annuity;
                 ws.ladder_payoff_dn[g * n_buckets + b] = s.payoff;
               });
  }
  stats.bumped_grid_points = (4 + 2 * n_buckets) * stats.base.grid_points;

  // Pass 3 -- per option: every sensitivity is an O(1) combine. The
  // expressions mirror compute_sensitivities / cs01_ladder term for term so
  // the results are bit-consistent with the scalar reference.
  const double* annuity = ws.base.grid_annuity.data();
  const double* payoff = ws.base.grid_payoff.data();
  std::size_t scalar_points = 0;
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::uint32_t g = ws.base.grid_of[i];
    const double recovery = options[i].recovery_rate;
    const double one_minus_r = 1.0 - recovery;
    Sensitivities s;
    s.spread_bps =
        kBasisPointsPerUnit * (one_minus_r * payoff[g]) / annuity[g];
    {
      const double up = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_hazard_up[g]) /
                        ws.annuity_hazard_up[g];
      const double dn = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_hazard_dn[g]) /
                        ws.annuity_hazard_dn[g];
      s.cs01 = (up - dn) / (2.0 * bump) * 1e-4;
    }
    {
      const double up = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_interest_up[g]) /
                        ws.annuity_interest_up[g];
      const double dn = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_interest_dn[g]) /
                        ws.annuity_interest_dn[g];
      s.ir01 = (up - dn) / (2.0 * bump) * 1e-4;
    }
    {
      // The spread is linear in the recovery rate, so the scalar path's
      // central difference is an exact reweighting of the base sums.
      const double rb = std::min(bump, 0.5 * (1.0 - recovery));
      const double recovery_up = recovery + rb;
      const double recovery_dn = std::max(0.0, recovery - rb);
      const double up =
          kBasisPointsPerUnit * ((1.0 - recovery_up) * payoff[g]) / annuity[g];
      const double dn =
          kBasisPointsPerUnit * ((1.0 - recovery_dn) * payoff[g]) / annuity[g];
      s.rec01 = (up - dn) / (recovery_up - recovery_dn) * 0.01;
    }
    s.jtd = one_minus_r;
    out[i] = s;
    for (std::size_t b = 0; b < n_buckets; ++b) {
      const std::size_t gb = g * n_buckets + b;
      const double up = kBasisPointsPerUnit *
                        (one_minus_r * ws.ladder_payoff_up[gb]) /
                        ws.ladder_annuity_up[gb];
      const double dn = kBasisPointsPerUnit *
                        (one_minus_r * ws.ladder_payoff_dn[gb]) /
                        ws.ladder_annuity_dn[gb];
      ladder_out[i * n_buckets + b] = (up - dn) / (2.0 * bump) * 1e-4;
    }
    scalar_points += ws.base.grid_end(g) - ws.base.grid_offset[g];
  }
  stats.base.scalar_points = scalar_points;
  stats.scalar_repricings = options.size() * (7 + 2 * n_buckets);
  return stats;
}

BatchPricer::RiskRun BatchPricer::price_with_sensitivities(
    const std::vector<CdsOption>& options,
    const BatchRiskConfig& config) const {
  RiskRun run;
  run.ladder_buckets =
      config.ladder_edges.empty() ? 0 : config.ladder_edges.size() - 1;
  run.sensitivities.resize(options.size());
  run.cs01_ladder.resize(options.size() * run.ladder_buckets);
  RiskWorkspace ws;
  run.stats = price_with_sensitivities(options, run.sensitivities,
                                       run.cs01_ladder, ws, config);
  return run;
}

}  // namespace cdsflow::cds
