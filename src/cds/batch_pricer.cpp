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

GridSums checked_grid_sums(const LegSums& sums) {
  const double annuity = sums.premium + sums.accrual;
  CDSFLOW_EXPECT(annuity > 0.0,
                 "risky annuity must be positive to quote a spread");
  return {annuity, sums.payoff};
}

void scan_leg_sums(std::span<const TimePoint> points,
                   std::span<const double> discount,
                   std::span<const double> survival, std::size_t from,
                   std::span<LegSums> sums) {
  CDSFLOW_ASSERT(discount.size() == points.size() &&
                     survival.size() == points.size() &&
                     sums.size() == points.size() && from <= points.size(),
                 "ladder column spans must match the ladder length");
  LegSums acc = from == 0 ? LegSums{} : sums[from - 1];
  double q_prev = from == 0 ? 1.0 : survival[from - 1];  // Q(0) = 1
  for (std::size_t i = from; i < points.size(); ++i) {
    const LegTerms terms =
        leg_terms_from_discount(discount[i], q_prev, survival[i], points[i].dt);
    acc.premium += terms.premium;
    acc.accrual += terms.accrual;
    acc.payoff += terms.payoff;
    sums[i] = acc;
    q_prev = survival[i];
  }
}

GridSums stub_grid_sums(std::span<const LegSums> sums,
                        std::span<const double> survival, std::size_t prefix,
                        const TimePoint& stub, double stub_discount,
                        double stub_survival) {
  LegSums acc = prefix == 0 ? LegSums{} : sums[prefix - 1];
  const double q_prev = prefix == 0 ? 1.0 : survival[prefix - 1];
  const LegTerms terms =
      leg_terms_from_discount(stub_discount, q_prev, stub_survival, stub.dt);
  acc.premium += terms.premium;
  acc.accrual += terms.accrual;
  acc.payoff += terms.payoff;
  return checked_grid_sums(acc);
}

void build_scenario_block(std::span<const double> knot_times,
                          const BatchPricer::Workspace& ws, std::size_t first,
                          std::size_t last, ScenarioBlock& block) {
  CDSFLOW_ASSERT(first < last && last <= ws.tabulated_grids(),
                 "a scenario block needs a non-empty range of built grids");
  block.first_grid = first;
  block.last_grid = last;
  block.points.clear();
  block.discount.clear();
  block.survival.clear();
  block.ladder_begin.clear();
  const auto append = [&](auto points, auto discount, auto survival) {
    block.points.insert(block.points.end(), points.begin(), points.end());
    block.discount.insert(block.discount.end(), discount.begin(),
                          discount.end());
    block.survival.insert(block.survival.end(), survival.begin(),
                          survival.end());
  };
  for (const BatchPricer::Ladder& ladder : ws.ladders) {
    block.ladder_begin.push_back(block.points.size());
    append(std::span(ladder.points).first(ladder.sums.size()),
           std::span(ladder.discount), std::span(ladder.survival));
  }
  block.ladder_begin.push_back(block.points.size());
  const std::size_t n_grids = last - first;
  append(std::span(ws.stub).subspan(first, n_grids),
         std::span(ws.stub_discount).subspan(first, n_grids),
         std::span(ws.stub_survival).subspan(first, n_grids));
  block.prefix_row.resize(n_grids);
  for (std::size_t g = first; g < last; ++g) {
    const std::size_t prefix = ws.grid_prefix[g];
    block.prefix_row[g - first] =
        prefix == 0 ? -1
                    : static_cast<std::int64_t>(
                          block.ladder_begin[ws.grid_ladder[g]] + prefix - 1);
  }

  const std::size_t n_knots = knot_times.size();
  block.knot_dt.resize(n_knots);  // tau_0 - 0.0 is tau_0, bit for bit
  std::adjacent_difference(knot_times.begin(), knot_times.end(),
                           block.knot_dt.begin());
  const std::size_t n_points = block.points.size();
  block.accrual_dt.resize(n_points);
  block.point_dt.resize(n_points);
  block.base_row.resize(n_points);
  block.rate_row.resize(n_points);
  std::size_t max_row = 0;
  for (std::size_t i = 0; i < n_points; ++i) {
    const double t = block.points[i].t;
    const auto j = static_cast<std::size_t>(
        std::lower_bound(knot_times.begin(), knot_times.end(), t) -
        knot_times.begin());
    block.base_row[i] = static_cast<std::int64_t>(j);
    block.rate_row[i] = static_cast<std::int64_t>(std::min(j, n_knots - 1));
    block.point_dt[i] = t - (j == 0 ? 0.0 : knot_times[j - 1]);
    block.accrual_dt[i] = block.points[i].dt;
    max_row = std::max(max_row, j);
  }
  block.active_knots = std::min(n_knots, max_row + 1);
}

void hazard_scenario_sums(std::span<const double> rows, ScenarioBlock& block,
                          simd::Level level, const ScenarioSumsSink& sink) {
  const std::size_t w = simd::lanes(simd::resolve_level(level));
  const std::size_t n_knots = block.knot_dt.size();
  const std::size_t nk = block.active_knots;
  const std::size_t n_rows = rows.size() / n_knots;
  const std::size_t n_points = block.points.size();
  const std::size_t n_ladder = block.stub_begin();
  const std::size_t n_grids = block.last_grid - block.first_grid;
  block.rates_T.resize(nk * w);
  block.lambda_T.resize((nk + 1) * w);
  block.q_T.resize(n_points * w);
  block.sums_T.resize(n_ladder * 3 * w);
  block.annuity_T.resize(n_grids * w);
  block.payoff_T.resize(n_grids * w);
  block.annuity.resize(n_grids);
  block.payoff.resize(n_grids);
  const auto dts = std::span<const double>(block.accrual_dt);
  const auto discount = std::span<const double>(block.discount);
  const auto q_T = std::span<const double>(block.q_T);
  const auto sums_T = std::span<double>(block.sums_T);
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
    // Running sums ladder by ladder, then one step per grid, scenarios
    // abreast: the survival rows never leave their transposed layout.
    for (std::size_t l = 0; l + 1 < block.ladder_begin.size(); ++l) {
      const std::size_t begin = block.ladder_begin[l];
      const std::size_t n = block.ladder_begin[l + 1] - begin;
      simd::sweep_ladder_sums_group(dts.subspan(begin, n),
                                    discount.subspan(begin, n),
                                    q_T.subspan(begin * w, n * w),
                                    sums_T.subspan(begin * 3 * w, n * 3 * w),
                                    level);
    }
    simd::sweep_stub_sums_group(
        block.prefix_row, q_T.first(n_ladder * w), sums_T,
        dts.subspan(n_ladder), discount.subspan(n_ladder),
        q_T.subspan(n_ladder * w), block.annuity_T, block.payoff_T, level);
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
                        const simd::SearchTable& search,
                        std::span<const double> survival,
                        ScenarioBlock& block, simd::Level level) {
  const std::size_t n_ladder = block.stub_begin();
  const std::size_t n_grids = block.last_grid - block.first_grid;
  block.scenario_discount.resize(block.points.size());
  block.ladder_sums.resize(n_ladder);
  block.annuity.resize(n_grids);
  block.payoff.resize(n_grids);
  const auto points = std::span<const TimePoint>(block.points);
  const auto discount = std::span<const double>(block.scenario_discount);
  const auto sums = std::span<LegSums>(block.ladder_sums);
  simd::discount_column(interest, search, points, block.scenario_discount,
                        level);
  for (std::size_t l = 0; l + 1 < block.ladder_begin.size(); ++l) {
    const std::size_t begin = block.ladder_begin[l];
    const std::size_t n = block.ladder_begin[l + 1] - begin;
    scan_leg_sums(points.subspan(begin, n), discount.subspan(begin, n),
                  survival.subspan(begin, n), 0, sums.subspan(begin, n));
  }
  for (std::size_t g = 0; g < n_grids; ++g) {
    // A prefix row indexes the block's ladder rows, so the sums and
    // survival before it are the block's own (prefix = row + 1).
    const std::int64_t row = block.prefix_row[g];
    const std::size_t stub = n_ladder + g;
    const GridSums grid = stub_grid_sums(
        sums, survival.first(n_ladder), static_cast<std::size_t>(row + 1),
        points[stub], discount[stub], survival[stub]);
    block.annuity[g] = grid.annuity;
    block.payoff[g] = grid.payoff;
  }
}

}  // namespace detail

/// The risk pass runs its scenarios over blocks of at most this many grids.
/// A block holds every ladder plus one stub per grid, and its scratch is
/// ~290 B per grid at AVX-512 -- 64 B of W-wide stub survival rows, 128 B
/// of W-wide grid sums, ~100 B of brackets, points and columns -- so it
/// stays ~1.2 MB plus the ladders whatever the book size.
constexpr std::size_t kRiskBlockGrids = 4096;

void BatchPricer::Workspace::clear() {
  grid_of.clear();
  grid_maturity.clear();
  grid_frequency.clear();
  grid_annuity.clear();
  grid_payoff.clear();
  grid_ladder.clear();
  grid_prefix.clear();
  stub.clear();
  stub_discount.clear();
  stub_survival.clear();
  for (Ladder& ladder : ladders) {
    ladder.frequency = 0.0;  // free for the next batch's first new frequency
    ladder.points.clear();
    ladder.discount.clear();
    ladder.survival.clear();
    ladder.sums.clear();
  }
  dedup.clear();  // keeps the bucket array, so a warmed workspace stays
                  // allocation-free
}

std::size_t BatchPricer::Workspace::tabulated_points() const {
  std::size_t points = stub.size();
  for (const Ladder& ladder : ladders) points += ladder.sums.size();
  return points;
}

detail::GridSums BatchPricer::Workspace::grid_sums(std::size_t g) const {
  const Ladder& ladder = ladders[grid_ladder[g]];
  return detail::stub_grid_sums(ladder.sums, ladder.survival, grid_prefix[g],
                                stub[g], stub_discount[g], stub_survival[g]);
}

BatchPricer::BatchPricer(TermStructure interest, TermStructure hazard,
                         simd::Level kernel_level)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      hazard_prefix_(make_hazard_prefix(hazard_)),
      kernel_level_(simd::resolve_level(kernel_level)) {
  interest_.validate();
}

namespace {

/// The ladder of `frequency` in `ws`: the one with its exact bits, else a
/// ladder clear() freed, else a new one.
std::uint32_t ladder_for(BatchPricer::Workspace& ws, double frequency) {
  std::size_t free = ws.ladders.size();
  for (std::size_t l = 0; l < ws.ladders.size(); ++l) {
    const double f = ws.ladders[l].frequency;
    if (std::bit_cast<std::uint64_t>(f) ==
        std::bit_cast<std::uint64_t>(frequency)) {
      return static_cast<std::uint32_t>(l);
    }
    if (f == 0.0 && free == ws.ladders.size()) free = l;
  }
  if (free == ws.ladders.size()) ws.ladders.emplace_back();
  ws.ladders[free].frequency = frequency;
  return static_cast<std::uint32_t>(free);
}

}  // namespace

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

  // Pass 2 -- every grid not tabulated yet: its ladder grows to the grid's
  // n - 1 points where it is shorter, and its stub is placed. Then each
  // ladder's new points get their D/Q columns in one cds::simd call and
  // their running sums, the new stubs their columns in one more call, and
  // each new grid its sums: the ladder's after n - 1 points plus the
  // stub's step. A call that threw in pass 1 leaves valid grids registered
  // but untabulated; the next call picks them up.
  const std::size_t first_new = ws.tabulated_grids();
  const std::size_t n_grids = ws.grid_maturity.size();
  if (n_grids > first_new) {
    // The knot-search tables: built on the workspace's first vector-level
    // tabulation, rebuilt only when this pricer's knot times differ from
    // the ones they serve. Prepared before the columns are sized: tables
    // allocated above first-call columns pin the heap top, and the
    // columns' later growth then strands their freed blocks in the heap.
    ws.search.prepare(interest_, hazard_prefix_, kernel_level_);
    // Per-grid arrays sized up front: a grid that fails its annuity check
    // leaves every per-grid array the same length.
    ws.grid_annuity.resize(n_grids);
    ws.grid_payoff.resize(n_grids);
    ws.grid_ladder.resize(n_grids);
    ws.grid_prefix.resize(n_grids);
    ws.stub.resize(n_grids);
    ws.stub_discount.resize(n_grids);
    ws.stub_survival.resize(n_grids);
    for (std::size_t g = first_new; g < n_grids; ++g) {
      CdsOption probe;  // schedule depends only on (maturity, frequency)
      probe.maturity_years = ws.grid_maturity[g];
      probe.payment_frequency = ws.grid_frequency[g];
      const std::size_t n = schedule_size(probe);
      const std::uint32_t l = ladder_for(ws, probe.payment_frequency);
      extend_ladder(probe.payment_frequency, n - 1, ws.ladders[l].points);
      ws.grid_ladder[g] = l;
      ws.grid_prefix[g] = n - 1;
      ws.stub[g] = maturity_point(probe, n);
    }
    for (Ladder& ladder : ws.ladders) {
      const std::size_t from = ladder.sums.size();
      const std::size_t n = ladder.points.size();
      if (n == from) continue;
      ladder.discount.resize(n);
      ladder.survival.resize(n);
      ladder.sums.resize(n);
      simd::tabulate_columns(
          interest_, hazard_prefix_, ws.search,
          std::span<const TimePoint>(ladder.points).subspan(from),
          std::span(ladder.discount).subspan(from),
          std::span(ladder.survival).subspan(from), kernel_level_);
      detail::scan_leg_sums(ladder.points, ladder.discount, ladder.survival,
                            from, ladder.sums);
    }
    simd::tabulate_columns(
        interest_, hazard_prefix_, ws.search,
        std::span<const TimePoint>(ws.stub).subspan(first_new),
        std::span(ws.stub_discount).subspan(first_new),
        std::span(ws.stub_survival).subspan(first_new), kernel_level_);
    for (std::size_t g = first_new; g < n_grids; ++g) {
      const detail::GridSums sums = ws.grid_sums(g);
      ws.grid_annuity[g] = sums.annuity;
      ws.grid_payoff[g] = sums.payoff;
    }
  }
  stats.unique_schedules = n_grids;
  stats.grid_points = ws.tabulated_points();
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
    stats.scalar_points += ws.grid_prefix[g] + 1;
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
  for (std::size_t first = 0; first < n_grids; first += kRiskBlockGrids) {
    const std::size_t last = std::min(n_grids, first + kRiskBlockGrids);
    detail::build_scenario_block(hazard_.times(), ws.base, first, last, block);
    detail::hazard_scenario_sums(ws.hazard_rows, block, kernel_level_,
                                 store_row);
    for (std::size_t k = 0; k < 2; ++k) {
      detail::rate_scenario_sums(interest_bumps[k], ws.base.search.interest,
                                 block.survival, block, kernel_level_);
      store_row(n_hazard + k, block.annuity, block.payoff);
    }
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
    scalar_points += ws.base.grid_prefix[g] + 1;
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
