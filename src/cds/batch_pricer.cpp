#include "cds/batch_pricer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

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

void build_scenario_block(std::span<const double> knot_times,
                          const BatchPricer::Workspace& ws, std::size_t first,
                          std::size_t last, ScenarioBlock& block) {
  CDSFLOW_ASSERT(first < last && last <= ws.grid_offset.size(),
                 "a scenario block needs a non-empty range of built grids");
  const std::size_t n_knots = knot_times.size();
  block.first_grid = first;
  block.last_grid = last;
  block.first_point = ws.grid_offset[first];
  block.knot_dt.resize(n_knots);  // tau_0 - 0.0 is tau_0, bit for bit
  std::adjacent_difference(knot_times.begin(), knot_times.end(),
                           block.knot_dt.begin());
  const std::size_t n_points = ws.grid_end(last - 1) - block.first_point;
  block.point_dt.resize(n_points);
  block.base_row.resize(n_points);
  block.rate_row.resize(n_points);
  block.accrual_dt.resize(n_points);
  std::size_t max_row = 0;
  for (std::size_t g = first; g < last; ++g) {
    const std::size_t begin = ws.grid_offset[g];
    std::size_t j = static_cast<std::size_t>(
        std::lower_bound(knot_times.begin(), knot_times.end(),
                         ws.points[begin].t) -
        knot_times.begin());
    for (std::size_t i = begin; i < ws.grid_end(g); ++i) {
      const double t = ws.points[i].t;
      while (j < n_knots && knot_times[j] < t) ++j;
      const std::size_t k = i - block.first_point;
      block.base_row[k] = static_cast<std::int64_t>(j);
      block.rate_row[k] = static_cast<std::int64_t>(std::min(j, n_knots - 1));
      block.point_dt[k] = t - (j == 0 ? 0.0 : knot_times[j - 1]);
      block.accrual_dt[k] = ws.points[i].dt;
    }
    max_row = std::max(max_row, j);
  }
  block.active_knots = std::min(n_knots, max_row + 1);
}

void hazard_scenario_sums(std::span<const double> rows,
                          const BatchPricer::Workspace& ws,
                          ScenarioBlock& block, simd::Level level,
                          const ScenarioSumsSink& sink) {
  const std::size_t w = simd::lanes(simd::resolve_level(level));
  const std::size_t n_knots = block.knot_dt.size();
  const std::size_t nk = block.active_knots;
  const std::size_t n_rows = rows.size() / n_knots;
  const std::size_t n_points = block.point_dt.size();
  const std::size_t n_grids = block.last_grid - block.first_grid;
  block.rates_T.resize(nk * w);
  block.lambda_T.resize((nk + 1) * w);
  block.q_T.resize(n_points * w);
  block.annuity_T.resize(n_grids * w);
  block.payoff_T.resize(n_grids * w);
  block.annuity.resize(n_grids);
  block.payoff.resize(n_grids);
  const auto discount =
      std::span<const double>(ws.discount).subspan(block.first_point, n_points);
  const auto q_T = std::span<const double>(block.q_T);
  for (std::size_t s0 = 0; s0 < n_rows; s0 += w) {
    const std::size_t in_group = std::min(w, n_rows - s0);
    for (std::size_t j = 0; j < nk; ++j) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        const std::size_t s = s0 + (lane < in_group ? lane : in_group - 1);
        block.rates_T[j * w + lane] = rows[s * n_knots + j];
      }
    }
    simd::sweep_survival_group(
        block.rates_T, std::span<const double>(block.knot_dt).first(nk),
        block.lambda_T, block.point_dt, block.base_row, block.rate_row,
        block.q_T, level);
    // Leg sums grid by grid, scenarios abreast: the survival rows never
    // leave their transposed layout.
    for (std::size_t g = 0; g < n_grids; ++g) {
      const std::size_t grid = block.first_grid + g;
      const std::size_t begin = ws.grid_offset[grid] - block.first_point;
      const std::size_t n = ws.grid_end(grid) - ws.grid_offset[grid];
      simd::sweep_leg_sums_group(
          std::span<const double>(block.accrual_dt).subspan(begin, n),
          discount.subspan(begin, n),
          q_T.subspan(begin * w, n * w),
          std::span<double>(block.annuity_T).subspan(g * w, w),
          std::span<double>(block.payoff_T).subspan(g * w, w), level);
    }
    for (std::size_t lane = 0; lane < in_group; ++lane) {
      for (std::size_t g = 0; g < n_grids; ++g) {
        // checked_grid_sums' positivity diagnostic per lane (its annuity
        // add already ran lane-wise in the kernel; + 0.0 keeps the bits).
        const GridSums sums = checked_grid_sums(
            {block.annuity_T[g * w + lane], 0.0, block.payoff_T[g * w + lane]});
        block.annuity[g] = sums.annuity;
        block.payoff[g] = sums.payoff;
      }
      sink(s0 + lane, block.annuity, block.payoff);
    }
  }
}

void rate_scenario_sums(const TermStructure& interest,
                        std::span<const double> survival,
                        const BatchPricer::Workspace& ws, ScenarioBlock& block,
                        simd::Level level) {
  const std::size_t n_points = block.point_dt.size();
  const std::size_t n_grids = block.last_grid - block.first_grid;
  block.discount.resize(n_points);
  block.annuity.resize(n_grids);
  block.payoff.resize(n_grids);
  const auto points =
      std::span<const TimePoint>(ws.points).subspan(block.first_point, n_points);
  simd::discount_column(interest, ws.search.interest, points, block.discount,
                        level);
  const auto discount = std::span<const double>(block.discount);
  for (std::size_t g = 0; g < n_grids; ++g) {
    const std::size_t grid = block.first_grid + g;
    const std::size_t begin = ws.grid_offset[grid];
    const std::size_t n = ws.grid_end(grid) - begin;
    const std::size_t local = begin - block.first_point;
    const GridSums sums = checked_grid_sums(reduce_leg_sums(
        points.subspan(local, n), discount.subspan(local, n),
        survival.subspan(begin, n)));
    block.annuity[g] = sums.annuity;
    block.payoff[g] = sums.payoff;
  }
}

}  // namespace detail

/// The risk pass runs its scenarios over blocks of whole grids of at most
/// this many points (a longer grid is a block of its own). A block's
/// scratch is ~104 B per point at AVX-512 -- 64 B of W-wide survival rows,
/// 32 B of brackets, 8 B of discount column -- so it stays ~0.4 MB and in
/// L2 whatever the book size. Over the whole arena it would grow with the
/// book: ~9.6 MB for a 92k-point shard, in every risk workspace.
constexpr std::size_t kRiskBlockPoints = 4096;

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

  // The bumps keep the base knot times, so the hazard bumps are one kHazard
  // scenario set -- rows of knot values written straight from the base
  // curve, rows 2k / 2k + 1 moving the knots in [t_lo, t_hi) by +/-bump as
  // bucket_bump (over [-inf, inf): parallel_bump) would -- and the interest
  // bumps two rate scenarios, each over the base grids.
  const std::size_t n_knots = hazard_.size();
  const std::size_t n_hazard = 2 + 2 * n_buckets;
  ws.hazard_rows.resize(n_hazard * n_knots);
  const auto put_rows = [&](std::size_t up_row, double t_lo, double t_hi) {
    for (const std::size_t row : {up_row, up_row + 1}) {
      const double step = row == up_row ? bump : -bump;
      double* values = ws.hazard_rows.data() + row * n_knots;
      for (std::size_t k = 0; k < n_knots; ++k) {
        const double t = hazard_.times()[k];
        const double v = hazard_.values()[k];
        values[k] = t_lo <= t && t < t_hi ? v + step : v;
      }
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  put_rows(0, -kInf, kInf);
  const auto& edges = config.ladder_edges;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    put_rows(2 + 2 * b, edges[b], edges[b + 1]);
  }
  const TermStructure interest_bumps[] = {parallel_bump(interest_, bump),
                                          parallel_bump(interest_, -bump)};

  // Pass 2b -- every scenario's per-grid sums, block by block of whole
  // grids so the scenario scratch stays one block whatever the book size.
  const std::size_t n_grids = stats.base.unique_schedules;
  ws.scenario_annuity.resize((n_hazard + 2) * n_grids);
  ws.scenario_payoff.resize((n_hazard + 2) * n_grids);
  detail::ScenarioBlock& block = ws.block;
  const auto store_row = [&](std::size_t row, std::span<const double> annuity,
                             std::span<const double> payoff) {
    const std::size_t at = row * n_grids + block.first_grid;
    std::ranges::copy(annuity, ws.scenario_annuity.data() + at);
    std::ranges::copy(payoff, ws.scenario_payoff.data() + at);
  };
  for (std::size_t first = 0; first < n_grids;) {
    std::size_t last = first + 1;
    while (last < n_grids &&
           ws.base.grid_end(last) - ws.base.grid_offset[first] <=
               kRiskBlockPoints) {
      ++last;
    }
    detail::build_scenario_block(hazard_.times(), ws.base, first, last, block);
    detail::hazard_scenario_sums(ws.hazard_rows, ws.base, block, kernel_level_,
                                 store_row);
    for (std::size_t k = 0; k < 2; ++k) {
      detail::rate_scenario_sums(interest_bumps[k], ws.base.survival, ws.base,
                                 block, kernel_level_);
      store_row(n_hazard + k, block.annuity, block.payoff);
    }
    first = last;
  }
  stats.bumped_grid_points = (4 + 2 * n_buckets) * stats.base.grid_points;

  // Pass 3 -- per option: every sensitivity is an O(1) combine. The
  // expressions mirror compute_sensitivities / cs01_ladder term for term so
  // the results are bit-consistent with the scalar reference.
  const double* annuity = ws.base.grid_annuity.data();
  const double* payoff = ws.base.grid_payoff.data();
  const auto central = [&](std::size_t up_row, std::size_t g,
                           double one_minus_r) {
    const std::size_t up = up_row * n_grids + g;
    const std::size_t dn = up + n_grids;
    const double spread_up = kBasisPointsPerUnit *
                             (one_minus_r * ws.scenario_payoff[up]) /
                             ws.scenario_annuity[up];
    const double spread_dn = kBasisPointsPerUnit *
                             (one_minus_r * ws.scenario_payoff[dn]) /
                             ws.scenario_annuity[dn];
    return (spread_up - spread_dn) / (2.0 * bump) * 1e-4;
  };
  std::size_t scalar_points = 0;
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::uint32_t g = ws.base.grid_of[i];
    const double recovery = options[i].recovery_rate;
    const double one_minus_r = 1.0 - recovery;
    Sensitivities s;
    s.spread_bps =
        kBasisPointsPerUnit * (one_minus_r * payoff[g]) / annuity[g];
    s.cs01 = central(0, g, one_minus_r);
    s.ir01 = central(n_hazard, g, one_minus_r);
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
      ladder_out[i * n_buckets + b] = central(2 + 2 * b, g, one_minus_r);
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
