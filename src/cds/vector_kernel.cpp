#include "cds/vector_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cds/legs.hpp"
#include "cds/vector_kernel_arch.hpp"
#include "common/error.hpp"

namespace cdsflow::cds::simd {

namespace {

// The arch TUs address these types as raw strided doubles.
static_assert(sizeof(TimePoint) == 2 * sizeof(double) &&
                  offsetof(TimePoint, t) == 0,
              "TimePoint must be two packed doubles starting at t");
static_assert(sizeof(CdsOption) == 4 * sizeof(double) &&
                  offsetof(CdsOption, recovery_rate) == 3 * sizeof(double),
              "CdsOption must be 4 double-slots with recovery_rate last");
static_assert(sizeof(SpreadResult) == 2 * sizeof(double) &&
                  offsetof(SpreadResult, spread_bps) == sizeof(double),
              "SpreadResult must be two double-slots with the spread second");

/// The lane view of `table` for a curve of `knots` knots searched with
/// `bound`. The kernels index the curve with the table's entries, so a table
/// with buckets must come from a curve of the same knot count and bound;
/// which knot times it was built for is the caller's to check
/// (SearchTables::prepare).
SearchLut lut_of(const SearchTable& table, std::size_t knots, Bound bound) {
  const std::span<const std::int64_t> buckets = table.buckets();
  if (buckets.empty()) return {};
  CDSFLOW_ASSERT(table.knots() == knots && table.bound() == bound,
                 "search table was built for another curve or bound");
  return {buckets.data(), table.t0(), table.width(), 1.0 / table.width(),
          static_cast<std::int64_t>(buckets.size())};
}

PrefixView view(const HazardPrefix& prefix, const SearchTable& search) {
  return {prefix.times.data(), prefix.rates.data(), prefix.lambda.data(),
          prefix.times.size(),
          lut_of(search, prefix.times.size(), Bound::kLower)};
}

CurveView view(const TermStructure& curve, const SearchTable& search) {
  return {curve.times().data(), curve.values().data(), curve.size(),
          lut_of(search, curve.size(), Bound::kUpper)};
}

/// Points the arch kernel covers: the largest multiple of the lane width.
std::size_t vector_head(std::size_t n, Level level) {
  const std::size_t w = lanes(level);
  return n - n % w;
}

/// Scalar twin of the arch TUs' exp_pd (vector_kernel_impl.hpp), operation
/// for operation: std::fma is the single-rounding scalar counterpart of the
/// lane fmadd/fnmadd, so for any finite input this returns the exact bits a
/// vector lane would. The vector-level column tails run this instead of
/// std::exp so a point's value never depends on whether it landed in the
/// lane head or the tail -- i.e. on where a column call happened to end.
/// That is what keeps vector-level results invariant under sharding, thread
/// chunking and micro-batching (the runtime's determinism guarantees), and
/// ladder extensions and quote-update re-tabulation bit-consistent with a
/// full rebuild. kScalar keeps std::exp: the scalar reference arithmetic.
double exp_pd_scalar(double x) {
  constexpr double kLog2e = 1.44269504088896340736;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kMagic = 6755399441055744.0;  // 2^52 + 2^51

  x = x < -708.0 ? -708.0 : (x > 708.0 ? 708.0 : x);

  const double t = std::fma(x, kLog2e, kMagic);
  const double n = t - kMagic;
  const std::int64_t ni =
      std::bit_cast<std::int64_t>(t) - std::bit_cast<std::int64_t>(kMagic);

  double r = std::fma(-n, kLn2Hi, x);
  r = std::fma(-n, kLn2Lo, r);

  double p = 1.0 / 6227020800.0;         // 1/13!
  p = std::fma(p, r, 1.0 / 479001600.0);  // 1/12!
  p = std::fma(p, r, 1.0 / 39916800.0);   // 1/11!
  p = std::fma(p, r, 1.0 / 3628800.0);    // 1/10!
  p = std::fma(p, r, 1.0 / 362880.0);     // 1/9!
  p = std::fma(p, r, 1.0 / 40320.0);      // 1/8!
  p = std::fma(p, r, 1.0 / 5040.0);       // 1/7!
  p = std::fma(p, r, 1.0 / 720.0);        // 1/6!
  p = std::fma(p, r, 1.0 / 120.0);        // 1/5!
  p = std::fma(p, r, 1.0 / 24.0);         // 1/4!
  p = std::fma(p, r, 1.0 / 6.0);          // 1/3!
  p = std::fma(p, r, 0.5);                // 1/2!
  p = std::fma(p, r, 1.0);
  p = std::fma(p, r, 1.0);

  const double scale = std::bit_cast<double>(
      static_cast<std::uint64_t>(ni + 1023) << 52);
  return p * scale;
}

Level min_level(Level a, Level b) { return a < b ? a : b; }

Level env_clamp(Level detected) {
  const char* env = std::getenv("CDSFLOW_SIMD");
  if (env == nullptr) return detected;
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "avx2") == 0) {
    return min_level(detected, Level::kAvx2);
  }
  if (std::strcmp(env, "avx512") == 0) {
    return min_level(detected, Level::kAvx512);
  }
  return detected;  // unknown values are ignored, never widen
}

}  // namespace

bool compiled_with_simd() {
#if defined(CDSFLOW_HAVE_AVX2) || defined(CDSFLOW_HAVE_AVX512)
  return true;
#else
  return false;
#endif
}

Level detect_level() {
#if defined(CDSFLOW_HAVE_AVX2) || defined(CDSFLOW_HAVE_AVX512)
  static const Level detected = [] {
#if defined(CDSFLOW_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      return Level::kAvx512;
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Level::kAvx2;
    }
#endif
    return Level::kScalar;
  }();
  return detected;
#else
  return Level::kScalar;
#endif
}

Level active_level() {
  static const Level active = env_clamp(detect_level());
  return active;
}

Level resolve_level(Level level) { return min_level(level, detect_level()); }

unsigned lanes(Level level) {
  switch (level) {
    case Level::kAvx512:
      return 8;
    case Level::kAvx2:
      return 4;
    case Level::kScalar:
      return 1;
  }
  return 1;
}

const char* to_string(Level level) {
  switch (level) {
    case Level::kAvx512:
      return "avx512";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

SearchTable::SearchTable(std::span<const double> times, Bound bound)
    : times_(times.begin(), times.end()), bound_(bound) {
  const std::size_t n = times.size();
  if (n < 2) return;
  double min_gap = times[1] - times[0];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double gap = times[i + 1] - times[i];
    min_gap = gap < min_gap ? gap : min_gap;
  }
  if (!(min_gap > 0.0)) return;
  const double range = times[n - 1] - times[0];
  const double needed = std::ceil(range / (0.5 * min_gap)) + 1.0;
  // Past 8x the knot count the build would cost more than the queries save.
  if (!(needed <= 8.0 * static_cast<double>(n))) return;
  const auto n_buckets = static_cast<std::size_t>(needed);
  t0_ = times[0];
  width_ = range / static_cast<double>(n_buckets);
  buckets_.resize(n_buckets);
  // The anchors never decrease with k (fma rounds monotonically), so their
  // bound indices never decrease either: one forward walk over the knots
  // yields every anchor's std::lower_bound / upper_bound index.
  const bool upper = bound == Bound::kUpper;
  std::size_t j = 0;
  for (std::size_t k = 0; k < n_buckets; ++k) {
    const double anchor = std::fma(static_cast<double>(k), width_, t0_);
    while (j < n && (upper ? times[j] <= anchor : times[j] < anchor)) ++j;
    buckets_[k] = static_cast<std::int64_t>(j);
  }
}

bool SearchTable::built_for(std::span<const double> times) const {
  // Bitwise (memcmp, not ==): the exact knot times the buckets came from.
  return times.size() == times_.size() &&
         (times.empty() || std::memcmp(times.data(), times_.data(),
                                       times.size() * sizeof(double)) == 0);
}

void SearchTables::prepare(const TermStructure& interest_curve,
                           const HazardPrefix& hazard_prefix, Level level) {
  if (resolve_level(level) == Level::kScalar) return;
  if (!hazard.built_for(hazard_prefix.times)) {
    hazard = SearchTable(hazard_prefix.times, Bound::kLower);
  }
  if (!interest.built_for(interest_curve.times())) {
    interest = SearchTable(interest_curve.times(), Bound::kUpper);
  }
}

void survival_column(const HazardPrefix& prefix, const SearchTable& search,
                     std::span<const TimePoint> points, std::span<double> out,
                     Level level) {
  CDSFLOW_ASSERT(out.size() == points.size(),
                 "survival column span must match the schedule length");
  const Level run = resolve_level(level);
  std::size_t head = 0;
  if (run != Level::kScalar) {
    head = vector_head(points.size(), run);
    // maybe_unused: with no arch TU compiled in (CDSFLOW_DISABLE_SIMD) the
    // dispatch blocks below vanish and this branch is dead code.
    [[maybe_unused]] const double* ts = &points.data()->t;
    [[maybe_unused]] const PrefixView pv = view(prefix, search);
#if defined(CDSFLOW_HAVE_AVX512)
    if (run == Level::kAvx512) {
      detail_avx512::survival_column(pv, ts, 2, head, out.data());
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (run == Level::kAvx2) {
      detail_avx2::survival_column(pv, ts, 2, head, out.data());
    }
#endif
    // Lane tail: Lambda via the reference expressions (which the lanes
    // already match bit for bit), exp via the scalar exp_pd twin -- the
    // column's bits are independent of where the head ends.
    for (std::size_t i = head; i < points.size(); ++i) {
      out[i] = exp_pd_scalar(-integrated_hazard_prefix(prefix, points[i].t));
    }
    return;
  }
  // kScalar: the scalar reference arithmetic (survival_probability's bits,
  // via the prefix table).
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = survival_probability_prefix(prefix, points[i].t);
  }
}

void discount_column(const TermStructure& interest, const SearchTable& search,
                     std::span<const TimePoint> points, std::span<double> out,
                     Level level) {
  CDSFLOW_ASSERT(out.size() == points.size(),
                 "discount column span must match the schedule length");
  const Level run = resolve_level(level);
  if (run != Level::kScalar) {
    std::size_t head = 0;
    // A single-knot curve interpolates to a constant; the arch kernels
    // assume size >= 2 so their bracket gathers stay in range.
    if (interest.size() >= 2) {
      head = vector_head(points.size(), run);
      [[maybe_unused]] const double* ts = &points.data()->t;
      [[maybe_unused]] const CurveView cv = view(interest, search);
#if defined(CDSFLOW_HAVE_AVX512)
      if (run == Level::kAvx512) {
        detail_avx512::discount_column(cv, ts, 2, head, out.data());
      }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
      if (run == Level::kAvx2) {
        detail_avx2::discount_column(cv, ts, 2, head, out.data());
      }
#endif
    }
    // Lane tail: interpolation is the reference expression either way; exp
    // via the scalar exp_pd twin keeps the bits alignment-independent.
    for (std::size_t i = head; i < points.size(); ++i) {
      const double r = interest.interpolate_fast(points[i].t);
      out[i] = exp_pd_scalar(-(r * points[i].t));
    }
    return;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double r = interest.interpolate_fast(points[i].t);
    out[i] = std::exp(-r * points[i].t);
  }
}

void tabulate_columns(const TermStructure& interest,
                      const HazardPrefix& prefix, const SearchTables& search,
                      std::span<const TimePoint> points,
                      std::span<double> discount, std::span<double> survival,
                      Level level) {
  survival_column(prefix, search.hazard, points, survival, level);
  discount_column(interest, search.interest, points, discount, level);
}

void combine_spreads(std::span<const CdsOption> options,
                     std::span<const std::uint32_t> grid_of,
                     std::span<const double> annuity,
                     std::span<const double> payoff,
                     std::span<SpreadResult> out, Level level) {
  CDSFLOW_ASSERT(out.size() == options.size() &&
                     grid_of.size() == options.size(),
                 "combine spans must match the option count");
  const Level run = resolve_level(level);
  std::size_t head = 0;
  if (run != Level::kScalar && !options.empty()) {
    head = vector_head(options.size(), run);
    [[maybe_unused]] const double* recovery = &options.data()->recovery_rate;
#if defined(CDSFLOW_HAVE_AVX512)
    if (run == Level::kAvx512) {
      detail_avx512::combine_spreads(recovery, 4, grid_of.data(),
                                     annuity.data(), payoff.data(), head,
                                     &out.data()->spread_bps, 2);
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (run == Level::kAvx2) {
      detail_avx2::combine_spreads(recovery, 4, grid_of.data(),
                                   annuity.data(), payoff.data(), head,
                                   &out.data()->spread_bps, 2);
    }
#endif
    for (std::size_t i = 0; i < head; ++i) {
      out[i].id = options[i].id;
    }
  }
  // Scalar tail / kScalar: combine_spread_bps' expression, op for op.
  for (std::size_t i = head; i < options.size(); ++i) {
    const std::uint32_t g = grid_of[i];
    const double protection = (1.0 - options[i].recovery_rate) * payoff[g];
    out[i] = {options[i].id, kBasisPointsPerUnit * protection / annuity[g]};
  }
}

void exp_columns(std::span<const double> xs, std::span<double> out,
                 Level level) {
  CDSFLOW_ASSERT(out.size() == xs.size(),
                 "exp column spans must match in length");
  const Level run = resolve_level(level);
  if (run != Level::kScalar) {
    const std::size_t head = vector_head(xs.size(), run);
#if defined(CDSFLOW_HAVE_AVX512)
    if (run == Level::kAvx512) {
      detail_avx512::exp_columns(xs.data(), head, out.data());
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (run == Level::kAvx2) {
      detail_avx2::exp_columns(xs.data(), head, out.data());
    }
#endif
    for (std::size_t i = head; i < xs.size(); ++i) {
      out[i] = exp_pd_scalar(xs[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = std::exp(xs[i]);
  }
}

void sweep_survival_group(std::span<const double> rates_T,
                          std::span<const double> knot_dt,
                          std::span<double> lambda_T,
                          std::span<const double> point_dt,
                          std::span<const std::int64_t> base_row,
                          std::span<const std::int64_t> rate_row,
                          std::span<double> q_T, Level level) {
  const Level run = resolve_level(level);
  const std::size_t w = lanes(run);
  const std::size_t n_knots = knot_dt.size();
  const std::size_t n_points = point_dt.size();
  CDSFLOW_ASSERT(rates_T.size() == n_knots * w &&
                     lambda_T.size() == (n_knots + 1) * w &&
                     q_T.size() == n_points * w &&
                     base_row.size() == n_points &&
                     rate_row.size() == n_points,
                 "sweep group spans must match (knots + 1 lambda rows, one "
                 "q row per point, lane-width scenarios)");
  // Row 0 is the j == 0 zero base in every lane.
  for (std::size_t lane = 0; lane < w; ++lane) lambda_T[lane] = 0.0;
  if (run != Level::kScalar) {
#if defined(CDSFLOW_HAVE_AVX512)
    if (run == Level::kAvx512) {
      detail_avx512::sweep_survival_block(rates_T.data(), n_knots,
                                          knot_dt.data(), lambda_T.data(),
                                          point_dt.data(), base_row.data(),
                                          rate_row.data(), n_points,
                                          q_T.data());
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (run == Level::kAvx2) {
      detail_avx2::sweep_survival_block(rates_T.data(), n_knots,
                                        knot_dt.data(), lambda_T.data(),
                                        point_dt.data(), base_row.data(),
                                        rate_row.data(), n_points, q_T.data());
    }
#endif
    return;
  }
  // kScalar (w == 1): the reference arithmetic -- make_hazard_prefix's
  // accumulation, integrated_hazard_prefix's point expression, std::exp --
  // so the sweep is bit-identical to per-scenario survival_probability_prefix.
  double acc = 0.0;
  for (std::size_t j = 0; j < n_knots; ++j) {
    acc += rates_T[j] * knot_dt[j];
    lambda_T[j + 1] = acc;
  }
  for (std::size_t i = 0; i < n_points; ++i) {
    const double lam =
        lambda_T[static_cast<std::size_t>(base_row[i])] +
        rates_T[static_cast<std::size_t>(rate_row[i])] * point_dt[i];
    q_T[i] = std::exp(-lam);
  }
}

void sweep_ladder_sums_group(std::span<const double> dts,
                             std::span<const double> discount,
                             std::span<const double> q_T,
                             std::span<double> sums_T, Level level) {
  const Level run = resolve_level(level);
  const std::size_t w = lanes(run);
  const std::size_t n = dts.size();
  CDSFLOW_ASSERT(discount.size() == n && q_T.size() == n * w &&
                     sums_T.size() == 3 * n * w,
                 "sweep ladder spans must match (one ladder, lane-width "
                 "scenario group, three sums per point)");
  if (run != Level::kScalar) {
#if defined(CDSFLOW_HAVE_AVX512)
    if (run == Level::kAvx512) {
      detail_avx512::sweep_ladder_scan(dts.data(), discount.data(), q_T.data(),
                                       n, sums_T.data());
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (run == Level::kAvx2) {
      detail_avx2::sweep_ladder_scan(dts.data(), discount.data(), q_T.data(),
                                     n, sums_T.data());
    }
#endif
    return;
  }
  // kScalar (w == 1): the reference walk, term by term.
  double premium = 0.0;
  double accrual = 0.0;
  double payoff = 0.0;
  double q_prev = 1.0;  // Q(0)
  for (std::size_t i = 0; i < n; ++i) {
    const LegTerms terms =
        leg_terms_from_discount(discount[i], q_prev, q_T[i], dts[i]);
    premium += terms.premium;
    accrual += terms.accrual;
    payoff += terms.payoff;
    sums_T[3 * i] = premium;
    sums_T[3 * i + 1] = accrual;
    sums_T[3 * i + 2] = payoff;
    q_prev = q_T[i];
  }
}

void sweep_stub_sums_group(std::span<const std::int64_t> prefix_row,
                           std::span<const double> ladder_q_T,
                           std::span<const double> sums_T,
                           std::span<const double> stub_dts,
                           std::span<const double> stub_discount,
                           std::span<const double> stub_q_T,
                           std::span<double> annuity_out,
                           std::span<double> payoff_out, Level level) {
  const Level run = resolve_level(level);
  const std::size_t w = lanes(run);
  const std::size_t n = prefix_row.size();
  CDSFLOW_ASSERT(sums_T.size() == 3 * ladder_q_T.size() &&
                     stub_dts.size() == n && stub_discount.size() == n &&
                     stub_q_T.size() == n * w && annuity_out.size() == n * w &&
                     payoff_out.size() == n * w,
                 "sweep stub spans must match (one stub per grid, "
                 "lane-width scenario group)");
  if (run != Level::kScalar) {
#if defined(CDSFLOW_HAVE_AVX512)
    if (run == Level::kAvx512) {
      detail_avx512::sweep_stub_sums(prefix_row.data(), ladder_q_T.data(),
                                     sums_T.data(), stub_dts.data(),
                                     stub_discount.data(), stub_q_T.data(), n,
                                     annuity_out.data(), payoff_out.data());
    }
#endif
#if defined(CDSFLOW_HAVE_AVX2)
    if (run == Level::kAvx2) {
      detail_avx2::sweep_stub_sums(prefix_row.data(), ladder_q_T.data(),
                                   sums_T.data(), stub_dts.data(),
                                   stub_discount.data(), stub_q_T.data(), n,
                                   annuity_out.data(), payoff_out.data());
    }
#endif
    return;
  }
  // kScalar (w == 1): the reference walk's last step from the prefix sums.
  for (std::size_t g = 0; g < n; ++g) {
    double premium = 0.0;
    double accrual = 0.0;
    double payoff = 0.0;
    double q_prev = 1.0;  // Q(0): a one-point schedule
    if (prefix_row[g] >= 0) {
      const auto row = static_cast<std::size_t>(prefix_row[g]);
      premium = sums_T[3 * row];
      accrual = sums_T[3 * row + 1];
      payoff = sums_T[3 * row + 2];
      q_prev = ladder_q_T[row];
    }
    const LegTerms terms = leg_terms_from_discount(stub_discount[g], q_prev,
                                                   stub_q_T[g], stub_dts[g]);
    annuity_out[g] = (premium + terms.premium) + (accrual + terms.accrual);
    payoff_out[g] = payoff + terms.payoff;
  }
}

}  // namespace cdsflow::cds::simd
