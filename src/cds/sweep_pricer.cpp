#include "cds/sweep_pricer.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace cdsflow::cds {

const char* to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kHazard:
      return "hazard";
    case ScenarioKind::kRate:
      return "rate";
    case ScenarioKind::kJoint:
      return "joint";
  }
  return "hazard";
}

void SweepStats::merge(const SweepStats& other) {
  scenarios += other.scenarios;
  retabulated_columns += other.retabulated_columns;
  shared_columns += other.shared_columns;
  options = other.options;
  unique_schedules = other.unique_schedules;
  grid_points = other.grid_points;
}

SweepPricer::SweepPricer(TermStructure interest, TermStructure hazard,
                         std::span<const CdsOption> options,
                         simd::Level level)
    : base_(std::move(interest), std::move(hazard), level),
      options_(options.begin(), options.end()) {
  CDSFLOW_EXPECT(!options_.empty(), "scenario sweep needs a non-empty book");
  ws_.clear();
  book_stats_ = base_.build_grids(options_, ws_);
  n_grids_ = book_stats_.unique_schedules;

  // Per-grid extremal recoveries: the grid's min/max spread under *any*
  // scenario is the exact combine value at these recoveries (monotonicity
  // argument in the header), so the aggregates never touch the options
  // again.
  rec_min_.assign(n_grids_, std::numeric_limits<double>::infinity());
  rec_max_.assign(n_grids_, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < options_.size(); ++i) {
    const std::uint32_t g = ws_.grid_of[i];
    const double rec = options_[i].recovery_rate;
    rec_min_[g] = rec < rec_min_[g] ? rec : rec_min_[g];
    rec_max_[g] = rec > rec_max_[g] ? rec : rec_max_[g];
  }

  // Scenario-invariant hazard brackets: scenarios move knot values, never
  // knot times or schedules, so every point's segment index and both dt
  // terms are fixed across the whole sweep. The subtractions here are the
  // reference expressions' own (make_hazard_prefix's tau_j - tau_{j-1},
  // integrated_hazard_prefix's t - seg_begin), evaluated once.
  const HazardPrefix& prefix = base_.hazard_prefix();
  n_knots_ = prefix.times.size();
  knot_dt_.resize(n_knots_);
  double prev = 0.0;
  for (std::size_t j = 0; j < n_knots_; ++j) {
    knot_dt_[j] = prefix.times[j] - prev;
    prev = prefix.times[j];
  }
  const std::size_t n_points = ws_.points.size();
  base_row_.resize(n_points);
  rate_row_.resize(n_points);
  point_dt_.resize(n_points);
  accrual_dt_.resize(n_points);
  std::size_t max_row = 0;
  for (std::size_t i = 0; i < n_points; ++i) {
    accrual_dt_[i] = ws_.points[i].dt;
    const double t = ws_.points[i].t;
    const std::size_t j = static_cast<std::size_t>(
        std::lower_bound(prefix.times.begin(), prefix.times.end(), t) -
        prefix.times.begin());
    base_row_[i] = static_cast<std::int64_t>(j);
    rate_row_[i] = static_cast<std::int64_t>(std::min(j, n_knots_ - 1));
    const double seg_begin =
        j == 0 ? 0.0 : prefix.times[std::min(j, n_knots_) - 1];
    point_dt_[i] = t - seg_begin;
    max_row = std::max(max_row, j);
  }
  // Knots past the last schedule point never feed a lambda row or segment
  // rate the sweep reads, and the prefix accumulates left to right -- so
  // the per-scenario transpose and lambda chain can stop there without
  // moving a bit. A 30y curve under a 10y book drops ~2/3 of both.
  active_knots_ = std::min(n_knots_, max_row + 1);
}

ScenarioAggregate SweepPricer::aggregate_spreads(
    std::span<const SpreadResult> rs) {
  ScenarioAggregate agg{std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const SpreadResult& r : rs) {
    agg.min_spread_bps =
        r.spread_bps < agg.min_spread_bps ? r.spread_bps : agg.min_spread_bps;
    agg.max_spread_bps =
        r.spread_bps > agg.max_spread_bps ? r.spread_bps : agg.max_spread_bps;
  }
  return agg;
}

void SweepPricer::finish_scenario(std::size_t s, std::size_t base_index,
                                  std::span<const double> discount,
                                  std::span<const double> survival,
                                  std::span<ScenarioAggregate> aggregates,
                                  const ResultSink& sink) {
  // Per-grid leg reduction in the scalar reference's accumulation order --
  // the exact walk the naive loop's build_grids performs per scenario.
  const auto points = std::span<const TimePoint>(ws_.points);
  scen_annuity_.resize(n_grids_);
  scen_payoff_.resize(n_grids_);
  for (std::size_t g = 0; g < n_grids_; ++g) {
    const std::size_t begin = ws_.grid_offset[g];
    const std::size_t end =
        g + 1 < n_grids_ ? ws_.grid_offset[g + 1] : points.size();
    const std::size_t n = end - begin;
    const detail::GridSums sums =
        detail::checked_grid_sums(detail::reduce_leg_sums(
            points.subspan(begin, n), discount.subspan(begin, n),
            survival.subspan(begin, n)));
    scen_annuity_[g] = sums.annuity;
    scen_payoff_[g] = sums.payoff;
  }
  emit_scenario(s, base_index, aggregates, sink);
}

void SweepPricer::emit_scenario(std::size_t s, std::size_t base_index,
                                std::span<ScenarioAggregate> aggregates,
                                const ResultSink& sink) {
  // O(grids) aggregate: the combine expression, op for op, at each grid's
  // extremal recoveries (spread is weakly decreasing in recovery).
  ScenarioAggregate agg{std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (std::size_t g = 0; g < n_grids_; ++g) {
    const double annuity = scen_annuity_[g];
    const double payoff = scen_payoff_[g];
    const double lo =
        kBasisPointsPerUnit * ((1.0 - rec_max_[g]) * payoff) / annuity;
    const double hi =
        kBasisPointsPerUnit * ((1.0 - rec_min_[g]) * payoff) / annuity;
    agg.min_spread_bps = lo < agg.min_spread_bps ? lo : agg.min_spread_bps;
    agg.max_spread_bps = hi > agg.max_spread_bps ? hi : agg.max_spread_bps;
  }
  aggregates[s - base_index] = agg;
  if (sink) {
    results_.resize(options_.size());
    simd::combine_spreads(options_, ws_.grid_of, scen_annuity_, scen_payoff_,
                          results_, base_.kernel_level());
    sink(s, results_);
  }
}

void SweepPricer::sweep_hazard(const ScenarioMatrix& m, std::size_t begin,
                               std::size_t end,
                               std::span<ScenarioAggregate> aggregates,
                               const ResultSink& sink) {
  const std::size_t w = simd::lanes(base_.kernel_level());
  const std::size_t n_points = ws_.points.size();
  const std::size_t nk = active_knots_;  // see the ctor truncation note
  rates_T_.resize(nk * w);
  lambda_T_.resize((nk + 1) * w);
  q_T_.resize(n_points * w);
  annuity_T_.resize(n_grids_ * w);
  payoff_T_.resize(n_grids_ * w);
  scen_annuity_.resize(n_grids_);
  scen_payoff_.resize(n_grids_);
  const auto discount = std::span<const double>(ws_.discount);
  const auto dts = std::span<const double>(accrual_dt_);
  const auto knot_dt = std::span<const double>(knot_dt_).first(nk);
  for (std::size_t s0 = begin; s0 < end; s0 += w) {
    const std::size_t in_group = std::min(w, end - s0);
    // Lane-transpose the group's rate rows; a partial final group pads the
    // spare lanes with its last scenario (every op is lane-wise, so padding
    // cannot perturb a real lane's bits and the padded outputs are simply
    // never read).
    for (std::size_t j = 0; j < nk; ++j) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        const std::size_t s = s0 + (lane < in_group ? lane : in_group - 1);
        rates_T_[j * w + lane] = m.hazard_values[s * n_knots_ + j];
      }
    }
    simd::sweep_survival_group(rates_T_, knot_dt, lambda_T_, point_dt_,
                               base_row_, rate_row_, q_T_,
                               base_.kernel_level());
    // Leg sums for the whole group, grid by grid, scenarios abreast -- the
    // survival columns never leave their transposed layout.
    for (std::size_t g = 0; g < n_grids_; ++g) {
      const std::size_t gb = ws_.grid_offset[g];
      const std::size_t ge =
          g + 1 < n_grids_ ? ws_.grid_offset[g + 1] : n_points;
      simd::sweep_leg_sums_group(
          dts.subspan(gb, ge - gb), discount.subspan(gb, ge - gb),
          std::span<const double>(q_T_).subspan(gb * w, (ge - gb) * w),
          std::span<double>(annuity_T_).subspan(g * w, w),
          std::span<double>(payoff_T_).subspan(g * w, w),
          base_.kernel_level());
    }
    for (std::size_t lane = 0; lane < in_group; ++lane) {
      for (std::size_t g = 0; g < n_grids_; ++g) {
        // checked_grid_sums' positivity diagnostic per lane (its annuity
        // add already ran lane-wise in the kernel; + 0.0 keeps the bits).
        const detail::GridSums sums = detail::checked_grid_sums(
            {annuity_T_[g * w + lane], 0.0, payoff_T_[g * w + lane]});
        scen_annuity_[g] = sums.annuity;
        scen_payoff_[g] = sums.payoff;
      }
      emit_scenario(s0 + lane, begin, aggregates, sink);
    }
  }
}

void SweepPricer::sweep_rate(const ScenarioMatrix& m, std::size_t begin,
                             std::size_t end,
                             std::span<ScenarioAggregate> aggregates,
                             const ResultSink& sink) {
  const std::size_t n_rate_knots = base_.interest().size();
  d_col_.resize(ws_.points.size());
  for (std::size_t s = begin; s < end; ++s) {
    rate_vals_.assign(
        m.rate_values.begin() + static_cast<std::ptrdiff_t>(s * n_rate_knots),
        m.rate_values.begin() +
            static_cast<std::ptrdiff_t>((s + 1) * n_rate_knots));
    const TermStructure curve(base_.interest().times(), rate_vals_);
    simd::discount_column(curve, ws_.search.interest, ws_.points, d_col_,
                          base_.kernel_level());
    finish_scenario(s, begin, d_col_, ws_.survival, aggregates, sink);
  }
}

void SweepPricer::sweep_joint(const ScenarioMatrix& m, std::size_t begin,
                              std::size_t end,
                              std::span<ScenarioAggregate> aggregates,
                              const ResultSink& sink) {
  const std::size_t n_rate_knots = base_.interest().size();
  q_col_.resize(ws_.points.size());
  d_col_.resize(ws_.points.size());
  for (std::size_t s = begin; s < end; ++s) {
    fill_hazard_prefix(base_.hazard().times(),
                       m.hazard_values.subspan(s * n_knots_, n_knots_),
                       scen_prefix_);
    simd::survival_column(scen_prefix_, ws_.search.hazard, ws_.points, q_col_,
                          base_.kernel_level());
    rate_vals_.assign(
        m.rate_values.begin() + static_cast<std::ptrdiff_t>(s * n_rate_knots),
        m.rate_values.begin() +
            static_cast<std::ptrdiff_t>((s + 1) * n_rate_knots));
    const TermStructure curve(base_.interest().times(), rate_vals_);
    simd::discount_column(curve, ws_.search.interest, ws_.points, d_col_,
                          base_.kernel_level());
    finish_scenario(s, begin, d_col_, q_col_, aggregates, sink);
  }
}

SweepStats SweepPricer::sweep(const ScenarioMatrix& scenarios,
                              std::size_t begin, std::size_t end,
                              std::span<ScenarioAggregate> aggregates,
                              const ResultSink& sink) {
  CDSFLOW_EXPECT(begin <= end && end <= scenarios.count,
                 "sweep range must lie inside the scenario set");
  CDSFLOW_EXPECT(aggregates.size() == end - begin,
                 "sweep needs aggregates.size() == end - begin");
  const bool needs_hazard = scenarios.kind != ScenarioKind::kRate;
  const bool needs_rate = scenarios.kind != ScenarioKind::kHazard;
  if (needs_hazard) {
    CDSFLOW_EXPECT(
        scenarios.hazard_values.size() == scenarios.count * n_knots_,
        "scenario hazard matrix must be count x hazard-knots");
  }
  if (needs_rate) {
    CDSFLOW_EXPECT(scenarios.rate_values.size() ==
                       scenarios.count * base_.interest().size(),
                   "scenario rate matrix must be count x interest-knots");
  }

  switch (scenarios.kind) {
    case ScenarioKind::kHazard:
      sweep_hazard(scenarios, begin, end, aggregates, sink);
      break;
    case ScenarioKind::kRate:
      sweep_rate(scenarios, begin, end, aggregates, sink);
      break;
    case ScenarioKind::kJoint:
      sweep_joint(scenarios, begin, end, aggregates, sink);
      break;
  }

  SweepStats stats;
  stats.scenarios = end - begin;
  stats.options = options_.size();
  stats.unique_schedules = n_grids_;
  stats.grid_points = book_stats_.grid_points;
  const std::size_t per_scenario = n_grids_;
  const std::size_t n = end - begin;
  if (scenarios.kind == ScenarioKind::kJoint) {
    stats.retabulated_columns = 2 * per_scenario * n;
    stats.shared_columns = 0;
  } else {
    stats.retabulated_columns = per_scenario * n;
    stats.shared_columns = per_scenario * n;
  }
  return stats;
}

std::vector<ScenarioAggregate> SweepPricer::sweep(
    const ScenarioMatrix& scenarios) {
  std::vector<ScenarioAggregate> aggregates(scenarios.count);
  sweep(scenarios, 0, scenarios.count, aggregates);
  return aggregates;
}

}  // namespace cdsflow::cds
