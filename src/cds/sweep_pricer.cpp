#include "cds/sweep_pricer.hpp"

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

  // Every ladder and stub with their scenario-invariant hazard brackets,
  // built once for every sweep.
  n_knots_ = base_.hazard().size();
  detail::build_scenario_block(base_.hazard().times(), ws_, 0, n_grids_,
                               block_);
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

void SweepPricer::emit_scenario(std::size_t s, std::size_t base_index,
                                std::span<const double> annuity,
                                std::span<const double> payoff,
                                std::span<ScenarioAggregate> aggregates,
                                const ResultSink& sink) {
  // O(grids) aggregate: the combine expression, op for op, at each grid's
  // extremal recoveries (spread is weakly decreasing in recovery).
  ScenarioAggregate agg{std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (std::size_t g = 0; g < n_grids_; ++g) {
    const double lo =
        kBasisPointsPerUnit * ((1.0 - rec_max_[g]) * payoff[g]) / annuity[g];
    const double hi =
        kBasisPointsPerUnit * ((1.0 - rec_min_[g]) * payoff[g]) / annuity[g];
    agg.min_spread_bps = lo < agg.min_spread_bps ? lo : agg.min_spread_bps;
    agg.max_spread_bps = hi > agg.max_spread_bps ? hi : agg.max_spread_bps;
  }
  aggregates[s - base_index] = agg;
  if (sink) {
    results_.resize(options_.size());
    simd::combine_spreads(options_, ws_.grid_of, annuity, payoff, results_,
                          base_.kernel_level());
    sink(s, results_);
  }
}

TermStructure SweepPricer::rate_curve(const ScenarioMatrix& m,
                                      std::size_t s) const {
  const std::size_t n = base_.interest().size();
  const auto values = m.rate_values.subspan(s * n, n);
  return {base_.interest().times(), {values.begin(), values.end()}};
}

void SweepPricer::sweep_hazard(const ScenarioMatrix& m, std::size_t begin,
                               std::size_t end,
                               std::span<ScenarioAggregate> aggregates,
                               const ResultSink& sink) {
  detail::hazard_scenario_sums(
      m.hazard_values.subspan(begin * n_knots_, (end - begin) * n_knots_),
      block_, base_.kernel_level(),
      [&](std::size_t row, std::span<const double> annuity,
          std::span<const double> payoff) {
        emit_scenario(begin + row, begin, annuity, payoff, aggregates, sink);
      });
}

void SweepPricer::sweep_rate(const ScenarioMatrix& m, std::size_t begin,
                             std::size_t end,
                             std::span<ScenarioAggregate> aggregates,
                             const ResultSink& sink) {
  for (std::size_t s = begin; s < end; ++s) {
    detail::rate_scenario_sums(rate_curve(m, s), ws_.search.interest,
                               block_.survival, block_, base_.kernel_level());
    emit_scenario(s, begin, block_.annuity, block_.payoff, aggregates, sink);
  }
}

void SweepPricer::sweep_joint(const ScenarioMatrix& m, std::size_t begin,
                              std::size_t end,
                              std::span<ScenarioAggregate> aggregates,
                              const ResultSink& sink) {
  q_col_.resize(block_.points.size());
  for (std::size_t s = begin; s < end; ++s) {
    fill_hazard_prefix(base_.hazard().times(),
                       m.hazard_values.subspan(s * n_knots_, n_knots_),
                       scen_prefix_);
    simd::survival_column(scen_prefix_, ws_.search.hazard, block_.points,
                          q_col_, base_.kernel_level());
    detail::rate_scenario_sums(rate_curve(m, s), ws_.search.interest, q_col_,
                               block_, base_.kernel_level());
    emit_scenario(s, begin, block_.annuity, block_.payoff, aggregates, sink);
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
