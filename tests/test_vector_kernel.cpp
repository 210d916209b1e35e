/// \file test_vector_kernel.cpp
/// The SIMD vector kernel's contract (cds/vector_kernel.hpp, bounds in
/// cds::VectorKernelContract, prose in docs/VECTOR_LANES.md): runtime
/// dispatch and the lane map, the exp ulp bound, column parity against the
/// scalar reference, alignment invariance of vector-level columns, the
/// knot-search table at knot ties and edges, the bit-exact spread combine,
/// kScalar bit-identical to the reference pricers (columns, spreads, Greeks,
/// ladder), the batch layout bit-identical to a per-option walk at every
/// level, randomized vec-vs-scalar batch and risk parity across book
/// shapes and knot counts,
/// stream bit-consistency across incremental hazard updates, the registry
/// name grammar, and planner enumeration of the cpu-vec candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/hazard.hpp"
#include "cds/legs.hpp"
#include "cds/precision.hpp"
#include "cds/pricer.hpp"
#include "cds/risk.hpp"
#include "cds/schedule.hpp"
#include "cds/stream_pricer.hpp"
#include "cds/types.hpp"
#include "cds/vector_kernel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "engines/planner.hpp"
#include "engines/registry.hpp"
#include "hls/replicate.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"

namespace cdsflow {
namespace {

using cds::BatchPricer;
using cds::CdsOption;
using cds::TermStructure;
using cds::VectorKernelContract;
using Level = cds::simd::Level;

/// The vector levels this host can actually execute (possibly empty).
std::vector<Level> available_vector_levels() {
  std::vector<Level> levels;
  for (const Level level : {Level::kAvx2, Level::kAvx512}) {
    if (cds::simd::resolve_level(level) == level) levels.push_back(level);
  }
  return levels;
}

/// Monotone bit ordering of finite doubles, for ulp distances across a
/// power-of-two boundary.
std::uint64_t ordered_bits(double x) {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(x);
  return (u >> 63) ? ~u : (u | 0x8000000000000000ull);
}

double ulp_distance(double a, double b) {
  const std::uint64_t x = ordered_bits(a);
  const std::uint64_t y = ordered_bits(b);
  return static_cast<double>(x > y ? x - y : y - x);
}

std::vector<CdsOption> continuous_book(std::size_t count, std::uint64_t seed) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.maturity_min_years = 0.25;
  spec.maturity_max_years = 29.5;
  spec.frequencies = {1.0, 2.0, 4.0, 12.0};
  spec.frequency_weights = {1.0, 1.0, 4.0, 1.0};
  spec.seed = seed;
  return workload::make_portfolio(spec);
}

std::vector<CdsOption> tenor_book(std::size_t count, std::uint64_t seed) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.frequencies = {2.0, 4.0};
  spec.frequency_weights = {1.0, 3.0};
  spec.seed = seed;
  return workload::make_portfolio(spec);
}

/// The knot-search tables a pricer's workspace holds for these curves at
/// the host's level (none without SIMD lanes).
cds::simd::SearchTables search_tables(const TermStructure& interest,
                                      const cds::HazardPrefix& prefix) {
  cds::simd::SearchTables search;
  search.prepare(interest, prefix, cds::simd::detect_level());
  return search;
}

/// Flat schedule arena over a book, the layout the batch kernel tabulates.
std::vector<cds::TimePoint> schedule_arena(
    const std::vector<CdsOption>& book) {
  std::vector<cds::TimePoint> points;
  for (const CdsOption& option : book) cds::make_schedule(option, points);
  return points;
}

void expect_spread_parity(const std::vector<cds::SpreadResult>& got,
                          const std::vector<cds::SpreadResult>& want,
                          double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_LE(relative_difference(got[i].spread_bps, want[i].spread_bps), tol)
        << "option " << i << ": got " << got[i].spread_bps << " want "
        << want[i].spread_bps;
  }
}

// --- dispatch ---------------------------------------------------------------

TEST(VectorKernel, LaneMapMirrorsHlsReplication) {
  EXPECT_EQ(cds::simd::lanes(Level::kScalar), 1u);
  EXPECT_EQ(cds::simd::lanes(Level::kAvx2), 4u);
  EXPECT_EQ(cds::simd::lanes(Level::kAvx512), 8u);
  // The CPU lane table brackets the paper's URAM-feed-limited replication
  // factor (Fig. 3; hls/replicate.hpp) -- the correspondence documented in
  // docs/VECTOR_LANES.md.
  EXPECT_EQ(hls::ReplicationConfig{}.lanes, 6u);

  EXPECT_STREQ(cds::simd::to_string(Level::kScalar), "scalar");
  EXPECT_STREQ(cds::simd::to_string(Level::kAvx2), "avx2");
  EXPECT_STREQ(cds::simd::to_string(Level::kAvx512), "avx512");
}

TEST(VectorKernel, DispatchNeverExceedsTheHost) {
  const Level detect = cds::simd::detect_level();
  // A request is clamped to the host: asking for the widest level resolves
  // to exactly what detection found, and kScalar is always honoured.
  EXPECT_EQ(cds::simd::resolve_level(Level::kAvx512), detect);
  EXPECT_EQ(cds::simd::resolve_level(Level::kScalar), Level::kScalar);
  EXPECT_LE(static_cast<int>(cds::simd::active_level()),
            static_cast<int>(detect));
  if (!cds::simd::compiled_with_simd()) {
    // The scalar-only CI lane (-DCDSFLOW_DISABLE_SIMD=ON) lands here.
    EXPECT_EQ(detect, Level::kScalar);
  }
}

// --- the exp kernel (VectorKernelContract::kExpUlpBound) --------------------

TEST(VectorKernel, ExpColumnsWithinUlpBound) {
  for (const Level level : available_vector_levels()) {
    SCOPED_TRACE(cds::simd::to_string(level));
    Rng rng(2024 + static_cast<std::uint64_t>(level));
    // The pricing domain is -Lambda(t) and -r*t: rates below ~20% on tenors
    // to 30y stay within [-6, 0]. Test an order of magnitude beyond it on
    // both sides, plus the edges the kernel special-cases.
    std::vector<double> xs;
    for (int i = 0; i < 4096; ++i) xs.push_back(rng.uniform(-60.0, 10.0));
    for (const double edge : {0.0, -0.0, 1e-12, -1e-12, -59.9, 9.9, 1.0}) {
      xs.push_back(edge);
    }
    std::vector<double> got(xs.size());
    cds::simd::exp_columns(xs, got, level);
    double worst = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      worst = std::max(worst, ulp_distance(got[i], std::exp(xs[i])));
    }
    EXPECT_LE(worst, VectorKernelContract::kExpUlpBound);
  }
}

TEST(VectorKernel, ExpColumnsAtScalarLevelIsStdExp) {
  std::vector<double> xs = {-3.5, -1.0, -1e-9, 0.0, 0.25};
  std::vector<double> got(xs.size());
  cds::simd::exp_columns(xs, got, Level::kScalar);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], std::exp(xs[i]));
  }
}

// --- column kernels ---------------------------------------------------------

TEST(VectorKernel, ColumnsMatchReferenceWithinUlpBound) {
  for (const std::size_t knots : {1u, 2u, 7u, 64u, 1024u}) {
    SCOPED_TRACE("knots=" + std::to_string(knots));
    const auto interest = workload::paper_interest_curve(knots, 5);
    const auto hazard = workload::paper_hazard_curve(knots, 6);
    const auto prefix = cds::make_hazard_prefix(hazard);
    const auto points = schedule_arena(continuous_book(48, 700 + knots));
    const auto search = search_tables(interest, prefix);

    std::vector<double> ref_q(points.size()), ref_d(points.size());
    cds::simd::survival_column(prefix, search.hazard, points, ref_q,
                               Level::kScalar);
    cds::simd::discount_column(interest, search.interest, points, ref_d,
                               Level::kScalar);
    for (const Level level : available_vector_levels()) {
      SCOPED_TRACE(cds::simd::to_string(level));
      std::vector<double> q(points.size()), d(points.size());
      cds::simd::tabulate_columns(interest, prefix, search, points, d, q,
                                  level);
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_LE(ulp_distance(q[i], ref_q[i]),
                  VectorKernelContract::kExpUlpBound)
            << "survival point " << i;
        EXPECT_LE(ulp_distance(d[i], ref_d[i]),
                  VectorKernelContract::kExpUlpBound)
            << "discount point " << i;
      }
    }
  }
}

TEST(VectorKernel, VectorColumnsAreAlignmentInvariant) {
  // The property the runtime's determinism rests on: a point's column value
  // does not depend on where the arena's lane head ends, because the tail
  // runs the bit-identical scalar exp_pd twin. Tabulating any subrange in
  // isolation must reproduce the arena-wide bits exactly.
  const auto interest = workload::paper_interest_curve(64, 5);
  const auto hazard = workload::paper_hazard_curve(64, 6);
  const auto prefix = cds::make_hazard_prefix(hazard);
  const auto points = schedule_arena(continuous_book(32, 4242));
  ASSERT_GE(points.size(), 32u);
  const auto search = search_tables(interest, prefix);

  for (const Level level : available_vector_levels()) {
    SCOPED_TRACE(cds::simd::to_string(level));
    std::vector<double> whole_q(points.size()), whole_d(points.size());
    cds::simd::survival_column(prefix, search.hazard, points, whole_q, level);
    cds::simd::discount_column(interest, search.interest, points, whole_d,
                               level);

    // Deliberately lane-hostile split points (prime offsets, odd lengths).
    for (const std::size_t begin : {0, 1, 3, 7, 13}) {
      const std::size_t n = std::min<std::size_t>(points.size() - begin, 29);
      std::vector<double> q(n), d(n);
      const auto part = std::span<const cds::TimePoint>(points)
                            .subspan(begin, n);
      cds::simd::survival_column(prefix, search.hazard, part, q, level);
      cds::simd::discount_column(interest, search.interest, part, d, level);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(q[i], whole_q[begin + i]) << "offset " << begin + i;
        EXPECT_EQ(d[i], whole_d[begin + i]) << "offset " << begin + i;
      }
    }
  }
}

// --- knot-search tables -----------------------------------------------------

/// One knot spacing a search table meets, and whether it admits a table.
struct KnotCase {
  std::string name;
  std::vector<double> times;
  bool has_table = false;
};

/// The uniform 1,024-knot paper grid; uneven gaps that still fit a table;
/// and a cluster whose half-gap buckets would number far past 8x the knot
/// count, so its columns keep the binary search.
std::vector<KnotCase> knot_cases() {
  std::vector<KnotCase> cases;
  cases.push_back(
      {"uniform", workload::paper_hazard_curve(1024, 6).times(), true});
  Rng rng(31);
  std::vector<double> uneven;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.uniform(0.05, 0.2);
    uneven.push_back(t);
  }
  cases.push_back({"uneven", uneven, true});
  std::vector<double> clustered;
  for (int i = 1; i <= 60; ++i) clustered.push_back(0.5 * i);
  for (int j = 1; j < 10; ++j) clustered.push_back(10.0 + 1e-4 * j);
  std::sort(clustered.begin(), clustered.end());
  cases.push_back({"clustered", clustered, false});
  return cases;
}

/// A curve over `times` with rates in [1%, 5%), usable as either curve.
TermStructure curve_over(const std::vector<double>& times,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(times.size());
  for (double& v : values) v = rng.uniform(0.01, 0.05);
  return TermStructure(times, std::move(values));
}

/// Points where lower and upper bound part ways or the search clamps: every
/// knot and its two neighbouring doubles, 0, below the first knot, beyond
/// the last, plus random positions.
std::vector<cds::TimePoint> knot_probe_points(const std::vector<double>& times,
                                              std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> ts = {0.0, 0.5 * times.front(), times.back() + 1.0,
                            2.0 * times.back()};
  for (const double knot : times) {
    ts.push_back(std::nextafter(knot, -kInf));
    ts.push_back(knot);
    ts.push_back(std::nextafter(knot, kInf));
  }
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    ts.push_back(rng.uniform(0.0, 1.1 * times.back()));
  }
  std::vector<cds::TimePoint> points;
  for (const double t : ts) points.push_back({t, 0.25});
  return points;
}

TEST(VectorKernel, SearchTableMatchesBinarySearchAtKnotTiesAndEdges) {
  using cds::simd::Bound;
  for (const KnotCase& knots : knot_cases()) {
    SCOPED_TRACE(knots.name);
    const std::vector<double>& times = knots.times;
    // The merge-walk build gives every anchor its std:: bound index.
    for (const Bound bound : {Bound::kLower, Bound::kUpper}) {
      const cds::simd::SearchTable table(times, bound);
      EXPECT_TRUE(table.built_for(times));
      EXPECT_EQ(table.knots(), times.size());
      ASSERT_EQ(!table.buckets().empty(), knots.has_table);
      for (std::size_t k = 0; k < table.buckets().size(); ++k) {
        const double anchor =
            std::fma(static_cast<double>(k), table.width(), table.t0());
        const auto it = bound == Bound::kUpper
                            ? std::upper_bound(times.begin(), times.end(),
                                               anchor)
                            : std::lower_bound(times.begin(), times.end(),
                                               anchor);
        ASSERT_EQ(table.buckets()[k], it - times.begin()) << "bucket " << k;
      }
    }

    // Through the lanes: the arena's lane head searches through the table
    // (or the binary search), a one-point span is all lane tail and runs
    // the reference std::lower_bound / upper_bound. Same bits everywhere.
    const TermStructure interest = curve_over(times, 5);
    const TermStructure hazard = curve_over(times, 6);
    const auto prefix = cds::make_hazard_prefix(hazard);
    const auto points = knot_probe_points(times, 7);
    for (const Level level : available_vector_levels()) {
      SCOPED_TRACE(cds::simd::to_string(level));
      cds::simd::SearchTables search;
      search.prepare(interest, prefix, level);
      std::vector<double> q(points.size()), d(points.size());
      cds::simd::tabulate_columns(interest, prefix, search, points, d, q,
                                  level);
      for (std::size_t i = 0; i < points.size(); ++i) {
        double q_alone = 0.0;
        double d_alone = 0.0;
        cds::simd::tabulate_columns(
            interest, prefix, search,
            std::span<const cds::TimePoint>(points).subspan(i, 1),
            std::span<double>(&d_alone, 1), std::span<double>(&q_alone, 1),
            level);
        ASSERT_EQ(q[i], q_alone) << "survival at t=" << points[i].t;
        ASSERT_EQ(d[i], d_alone) << "discount at t=" << points[i].t;
      }
    }
  }
}

TEST(VectorKernel, CombineSpreadsBitExactAtEveryLevel) {
  Rng rng(77);
  const std::size_t n_grids = 5;
  std::vector<double> annuity, payoff;
  for (std::size_t g = 0; g < n_grids; ++g) {
    annuity.push_back(rng.uniform(0.5, 8.0));
    payoff.push_back(rng.uniform(0.01, 0.9));
  }
  // 37 options: not a multiple of any lane width, so the tail runs too.
  std::vector<CdsOption> options;
  std::vector<std::uint32_t> grid_of;
  for (int i = 0; i < 37; ++i) {
    CdsOption option;
    option.id = 1000 + i;
    option.recovery_rate = rng.uniform(0.0, 0.95);
    options.push_back(option);
    grid_of.push_back(static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_grids) - 1)));
  }
  std::vector<cds::SpreadResult> want(options.size());
  cds::simd::combine_spreads(options, grid_of, annuity, payoff, want,
                             Level::kScalar);
  for (const Level level : available_vector_levels()) {
    SCOPED_TRACE(cds::simd::to_string(level));
    std::vector<cds::SpreadResult> got(options.size());
    cds::simd::combine_spreads(options, grid_of, annuity, payoff, got, level);
    for (std::size_t i = 0; i < options.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].spread_bps, want[i].spread_bps) << "option " << i;
    }
  }
}

// --- the kScalar level (bit-identical to the reference, not merely within
// tolerance) ---------------------------------------------------------------

TEST(VectorKernel, ScalarLevelIsBitIdenticalToReference) {
  // kScalar is the kernel's one un-replicated lane, and the column path is
  // the kernel's only path: cds::simd must then run the reference
  // arithmetic, so columns, spreads, Greeks and the ladder equal the
  // reference pricers' bits exactly.
  const auto interest = workload::paper_interest_curve(64, 5);
  const auto hazard = workload::paper_hazard_curve(64, 6);
  const auto prefix = cds::make_hazard_prefix(hazard);
  const BatchPricer batch(interest, hazard);
  EXPECT_EQ(batch.kernel_level(), Level::kScalar);
  const cds::ReferencePricer ref(interest, hazard);
  cds::BatchRiskConfig risk_config;
  risk_config.ladder_edges = {0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 30.0};
  const std::size_t buckets = risk_config.ladder_edges.size() - 1;
  const std::size_t greek_rows = 300;

  for (const bool continuous : {true, false}) {
    SCOPED_TRACE(continuous ? "continuous book" : "standard-tenor book");
    const auto book =
        continuous ? continuous_book(2000, 2121) : tenor_book(2000, 2122);

    BatchPricer::Workspace ws;
    std::vector<cds::SpreadResult> spreads(book.size());
    batch.price(book, spreads, ws);
    for (const auto& ladder : ws.ladders) {
      for (std::size_t i = 0; i < ladder.points.size(); ++i) {
        const double t = ladder.points[i].t;
        ASSERT_EQ(ladder.survival[i],
                  cds::survival_probability_prefix(prefix, t))
            << "ladder survival point " << i;
        ASSERT_EQ(ladder.discount[i],
                  std::exp(-interest.interpolate_fast(t) * t))
            << "ladder discount point " << i;
      }
    }
    for (std::size_t g = 0; g < ws.tabulated_grids(); ++g) {
      const double t = ws.stub[g].t;
      ASSERT_EQ(ws.stub_survival[g],
                cds::survival_probability_prefix(prefix, t))
          << "stub survival of grid " << g;
      ASSERT_EQ(ws.stub_discount[g],
                std::exp(-interest.interpolate_fast(t) * t))
          << "stub discount of grid " << g;
    }
    for (std::size_t i = 0; i < book.size(); ++i) {
      EXPECT_EQ(spreads[i].id, book[i].id);
      EXPECT_EQ(spreads[i].spread_bps, ref.spread_bps(book[i]))
          << "option " << i;
    }

    const std::vector<CdsOption> rows(book.begin(), book.begin() + greek_rows);
    const auto risk = batch.price_with_sensitivities(rows, risk_config);
    ASSERT_EQ(risk.ladder_buckets, buckets);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE("option " + std::to_string(i));
      const cds::Sensitivities want = cds::compute_sensitivities(
          interest, hazard, rows[i], risk_config.bump);
      const cds::Sensitivities& got = risk.sensitivities[i];
      EXPECT_EQ(got.spread_bps, want.spread_bps);
      EXPECT_EQ(got.cs01, want.cs01);
      EXPECT_EQ(got.ir01, want.ir01);
      EXPECT_EQ(got.rec01, want.rec01);
      EXPECT_EQ(got.jtd, want.jtd);
      const auto ladder = cds::cs01_ladder(interest, hazard, rows[i],
                                           risk_config.ladder_edges,
                                           risk_config.bump);
      for (std::size_t b = 0; b < buckets; ++b) {
        EXPECT_EQ(risk.cs01_ladder[i * buckets + b], ladder[b])
            << "bucket " << b;
      }
    }
  }

  if (cds::simd::detect_level() == Level::kScalar) {
    // SIMD compiled out (the scalar-only CI lane) or an unsupported CPU:
    // requesting the widest level must clamp to the same bits, and the
    // cpu-vec engine must reproduce cpu-batch exactly.
    const auto book = continuous_book(200, 2121);
    const auto want = batch.price(book);
    const BatchPricer clamped(interest, hazard, Level::kAvx512);
    EXPECT_EQ(clamped.kernel_level(), Level::kScalar);
    const auto clamped_run = clamped.price(book);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(clamped_run[i].spread_bps, want[i].spread_bps);
    }
    const auto vec_run =
        engine::make_engine("cpu-vec", interest, hazard)->price(book);
    const auto batch_run =
        engine::make_engine("cpu-batch", interest, hazard)->price(book);
    ASSERT_EQ(vec_run.results.size(), batch_run.results.size());
    for (std::size_t i = 0; i < vec_run.results.size(); ++i) {
      EXPECT_EQ(vec_run.results[i].spread_bps,
                batch_run.results[i].spread_bps);
    }
  }
}

// --- the batch layout against a per-option walk, at every level ----------

TEST(VectorKernel, BatchLayoutBitMatchesAPerOptionWalkAtEveryLevel) {
  // The kernel tabulates one ladder per frequency plus one stub per grid
  // and reads each grid's sums off its ladder's running sums. Pricing each
  // option alone -- its own schedule, its own columns, the reference walk
  // and combine -- must give the same bits at every level: a column value
  // does not depend on which call or lane computed it, and the sums are
  // the walk's own operations in its own order.
  std::vector<Level> levels{Level::kScalar};
  for (const Level level : available_vector_levels()) levels.push_back(level);
  const auto interest = workload::paper_interest_curve(256, 31);
  const auto hazard = workload::paper_hazard_curve(256, 32);
  const auto prefix = cds::make_hazard_prefix(hazard);

  std::vector<CdsOption> book;
  Rng rng(4242);
  std::int32_t id = 0;
  for (const double frequency : {1.0, 2.0, 4.0, 12.0}) {
    // On a payment date, a hair either side of it, below one period, and
    // thirty years (360 monthly points).
    for (const double maturity :
         {5.0, 5.0 + 1e-10, 5.0 - 1e-10, 0.1, 1.0 / 12.0, 30.0}) {
      book.push_back({id++, maturity, frequency, 0.4});
    }
    for (int i = 0; i < 1000; ++i) {
      book.push_back(
          {id++, rng.uniform(0.05, 30.0), frequency, rng.uniform(0.0, 0.9)});
    }
  }

  std::size_t differ = 0;
  for (const Level level : levels) {
    SCOPED_TRACE(cds::simd::to_string(level));
    const auto got = BatchPricer(interest, hazard, level).price(book);
    cds::simd::SearchTables search;
    search.prepare(interest, prefix, level);
    for (std::size_t i = 0; i < book.size(); ++i) {
      const auto points = cds::make_schedule(book[i]);
      std::vector<double> discount(points.size());
      std::vector<double> survival(points.size());
      cds::simd::tabulate_columns(interest, prefix, search, points, discount,
                                  survival, level);
      double premium = 0.0;
      double accrual = 0.0;
      double payoff = 0.0;
      double q_prev = 1.0;
      for (std::size_t j = 0; j < points.size(); ++j) {
        const cds::LegTerms terms = cds::leg_terms_from_discount(
            discount[j], q_prev, survival[j], points[j].dt);
        premium += terms.premium;
        accrual += terms.accrual;
        payoff += terms.payoff;
        q_prev = survival[j];
      }
      const double want = cds::combine_spread_bps(premium, accrual, payoff,
                                                  book[i].recovery_rate);
      if (std::bit_cast<std::uint64_t>(got[i].spread_bps) !=
          std::bit_cast<std::uint64_t>(want)) {
        if (++differ <= 10) {
          ADD_FAILURE() << "option " << i << " (maturity "
                        << book[i].maturity_years << ", frequency "
                        << book[i].payment_frequency << "): batch "
                        << got[i].spread_bps << ", walk " << want;
        }
      }
    }
  }
  EXPECT_EQ(differ, 0u);
}

// --- randomized batch parity (VectorKernelContract::kSpreadRelTol) ----------

TEST(VectorKernel, BatchParityAcrossBooksAndKnotCounts) {
  const Level level = cds::simd::detect_level();
  for (const std::size_t knots : {1u, 2u, 7u, 129u}) {
    SCOPED_TRACE("knots=" + std::to_string(knots));
    const auto interest = workload::paper_interest_curve(knots, 5);
    const auto hazard = workload::paper_hazard_curve(knots, 6);
    const BatchPricer vec(interest, hazard, level);
    const BatchPricer scalar(interest, hazard);
    const cds::ReferencePricer ref(interest, hazard);
    EXPECT_EQ(vec.kernel_level(), level);

    for (const bool continuous : {true, false}) {
      SCOPED_TRACE(continuous ? "continuous book" : "standard-tenor book");
      const auto book = continuous ? continuous_book(160, 3000 + knots)
                                   : tenor_book(160, 4000 + knots);
      const auto got = vec.price(book);
      expect_spread_parity(got, scalar.price(book),
                           VectorKernelContract::kSpreadRelTol);
      // And against the golden model at the repo-wide acceptance bound.
      for (std::size_t i = 0; i < book.size(); ++i) {
        EXPECT_LE(
            relative_difference(got[i].spread_bps, ref.spread_bps(book[i])),
            1e-9);
      }
    }
  }
}

// --- risk parity (kGreekRelTol / kGreekAbsFloor via greek_tolerance) --------

TEST(VectorKernel, RiskParityWithinContract) {
  const auto interest = workload::paper_interest_curve(64, 5);
  const auto hazard = workload::paper_hazard_curve(64, 6);
  const BatchPricer vec(interest, hazard, cds::simd::detect_level());
  const BatchPricer scalar(interest, hazard);
  const auto book = continuous_book(120, 5150);

  cds::BatchRiskConfig config;
  config.ladder_edges = {0.0, 1.0, 3.0, 5.0, 10.0, 30.0};
  const auto got = vec.price_with_sensitivities(book, config);
  const auto want = scalar.price_with_sensitivities(book, config);
  ASSERT_EQ(got.sensitivities.size(), book.size());
  ASSERT_EQ(got.ladder_buckets, 5u);
  ASSERT_EQ(got.cs01_ladder.size(), book.size() * got.ladder_buckets);

  for (std::size_t i = 0; i < book.size(); ++i) {
    SCOPED_TRACE("option " + std::to_string(i));
    const cds::Sensitivities& g = got.sensitivities[i];
    const cds::Sensitivities& w = want.sensitivities[i];
    EXPECT_LE(relative_difference(g.spread_bps, w.spread_bps),
              VectorKernelContract::kSpreadRelTol);
    // Rec01 is a reweighting of the base sums: it obeys the spread bound.
    EXPECT_LE(relative_difference(g.rec01, w.rec01),
              VectorKernelContract::kSpreadRelTol);
    // JTD is 1 - R, no curve math: exactly equal.
    EXPECT_EQ(g.jtd, w.jtd);
    EXPECT_LE(std::fabs(g.cs01 - w.cs01),
              VectorKernelContract::greek_tolerance(w.cs01, w.spread_bps,
                                                    config.bump))
        << "cs01 " << g.cs01 << " vs " << w.cs01;
    EXPECT_LE(std::fabs(g.ir01 - w.ir01),
              VectorKernelContract::greek_tolerance(w.ir01, w.spread_bps,
                                                    config.bump))
        << "ir01 " << g.ir01 << " vs " << w.ir01;
    for (std::size_t b = 0; b < got.ladder_buckets; ++b) {
      const double gv = got.cs01_ladder[i * got.ladder_buckets + b];
      const double wv = want.cs01_ladder[i * want.ladder_buckets + b];
      EXPECT_LE(std::fabs(gv - wv),
                VectorKernelContract::greek_tolerance(wv, w.spread_bps,
                                                      config.bump))
          << "ladder bucket " << b << ": " << gv << " vs " << wv;
    }
  }
}

// --- streaming pricer -------------------------------------------------------

TEST(VectorKernel, StreamStaysBitConsistentWithBatchRebuilds) {
  const auto interest = workload::paper_interest_curve(32, 5);
  auto hazard_values = workload::paper_hazard_curve(32, 6).values();
  const auto hazard_times = workload::paper_hazard_curve(32, 6).times();
  const TermStructure hazard(hazard_times, hazard_values);
  const Level level = cds::simd::detect_level();

  cds::StreamPricerConfig vec_config;
  vec_config.kernel_level = level;
  cds::StreamPricer vec_stream(interest, hazard, vec_config);
  cds::StreamPricer scalar_stream(interest, hazard);

  const auto book = tenor_book(120, 808);
  const auto price_batch = [&](cds::StreamPricer& pricer, std::size_t begin,
                               std::size_t count) {
    std::vector<cds::SpreadResult> out(count);
    pricer.price(std::span<const CdsOption>(book).subspan(begin, count), out);
    return out;
  };

  for (std::size_t batch = 0; batch < 3; ++batch) {
    SCOPED_TRACE("micro-batch " + std::to_string(batch));
    const auto got = price_batch(vec_stream, batch * 40, 40);
    const auto want = price_batch(scalar_stream, batch * 40, 40);
    expect_spread_parity(got, want, VectorKernelContract::kSpreadRelTol);
  }

  // Move one hazard quote on both replicas and on a fresh batch pricer.
  const std::size_t knot = 7;
  const double rate = hazard.value(knot) * 1.35;
  vec_stream.update_hazard_quote(knot, rate);
  scalar_stream.update_hazard_quote(knot, rate);
  hazard_values[knot] = rate;
  const BatchPricer fresh(interest, TermStructure(hazard_times, hazard_values),
                          level);

  const auto after = price_batch(vec_stream, 0, book.size());
  expect_spread_parity(after, price_batch(scalar_stream, 0, book.size()),
                       VectorKernelContract::kSpreadRelTol);
  // Alignment invariance makes the incremental per-grid re-tabulation
  // bit-consistent with an arena-wide rebuild even at vector levels.
  const auto rebuilt = fresh.price(book);
  ASSERT_EQ(after.size(), rebuilt.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, rebuilt[i].id);
    EXPECT_EQ(after[i].spread_bps, rebuilt[i].spread_bps) << "option " << i;
  }
}

// --- engines and registry ---------------------------------------------------

TEST(VectorKernel, EngineParity) {
  const auto interest = workload::paper_interest_curve(64, 5);
  const auto hazard = workload::paper_hazard_curve(64, 6);
  const auto book = tenor_book(192, 99);

  const auto vec = engine::make_engine("cpu-vec", interest, hazard);
  EXPECT_EQ(vec->name(), "cpu-vec");
  EXPECT_NE(vec->description().find("SIMD batch kernel"), std::string::npos);
  EXPECT_NE(
      vec->description().find(cds::simd::to_string(cds::simd::active_level())),
      std::string::npos);

  const auto vec_run = vec->price(book);
  const auto batch_run =
      engine::make_engine("cpu-batch", interest, hazard)->price(book);
  ASSERT_EQ(vec_run.results.size(), book.size());
  for (std::size_t i = 0; i < book.size(); ++i) {
    EXPECT_LE(relative_difference(vec_run.results[i].spread_bps,
                                  batch_run.results[i].spread_bps),
              VectorKernelContract::kSpreadRelTol);
  }
}

TEST(VectorKernel, RegistryNameGrammarRoundTrips) {
  engine::CpuEngineConfig config;
  ASSERT_TRUE(engine::parse_cpu_engine_name("cpu-vec", config));
  EXPECT_EQ(config.kernel, engine::CpuKernel::kVec);
  EXPECT_FALSE(config.risk_mode);

  config = {};
  ASSERT_TRUE(engine::parse_cpu_engine_name("cpu-vec-risk", config));
  EXPECT_EQ(config.kernel, engine::CpuKernel::kVec);
  EXPECT_TRUE(config.risk_mode);

  config = {};
  EXPECT_FALSE(engine::parse_cpu_engine_name("cpu-vectorised", config));
  EXPECT_EQ(config.kernel, engine::CpuKernel::kReference);
  EXPECT_FALSE(engine::parse_cpu_engine_name("cpu-vec-risk-mt8", config));
  EXPECT_EQ(config.kernel, engine::CpuKernel::kReference);

  EXPECT_EQ(engine::cpu_engine_name(engine::CpuKernel::kVec, false),
            "cpu-vec");
  EXPECT_EQ(engine::cpu_engine_name(engine::CpuKernel::kVec, true),
            "cpu-vec-risk");

  const auto names = engine::engine_names();
  for (const char* name : {"cpu-vec", "cpu-vec-risk"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

// --- planner ----------------------------------------------------------------

TEST(VectorKernel, PlannerEnumeratesVectorCandidateOnSimdHosts) {
  const auto interest = workload::paper_interest_curve(16, 5);
  const auto hazard = workload::paper_hazard_curve(16, 6);
  engine::PlannerConfig config;
  config.probe_sizes = {8, 24};
  config.fpga_engine_counts = {1};

  const auto has = [](const std::vector<engine::BackendCandidate>& candidates,
                      const std::string& name) {
    return std::any_of(candidates.begin(), candidates.end(),
                       [&](const engine::BackendCandidate& c) {
                         return c.engine_name == name;
                       });
  };

  const auto candidates = engine::enumerate_backends(interest, hazard, config);
  EXPECT_TRUE(has(candidates, "cpu"));
  EXPECT_TRUE(has(candidates, "cpu-batch"));
  // cpu-vec rides the existing probe->affine-fit pipeline with no
  // planner-logic changes; it appears exactly when the host has lanes.
  EXPECT_EQ(has(candidates, "cpu-vec"),
            cds::simd::active_level() != Level::kScalar);
  for (const auto& candidate : candidates) {
    EXPECT_GT(candidate.options_per_second, 0.0) << candidate.engine_name;
  }

  config.probe_cpu_vec = false;
  EXPECT_FALSE(has(engine::enumerate_backends(interest, hazard, config),
                   "cpu-vec"));
}

}  // namespace
}  // namespace cdsflow
