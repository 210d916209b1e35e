/// \file test_batch_pricer.cpp
/// The batched SoA fast-path kernel: parity with the golden reference
/// across knot counts and maturity edge cases, the O(log) curve-query fast
/// paths against their HLS-mirroring scan twins, schedule dedup accounting,
/// one workspace shared by pricers on different knot times, the
/// buffer-reusing make_schedule overload, and determinism of the
/// cpu-batch engine through the sharded portfolio runtime.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/hazard.hpp"
#include "cds/legs.hpp"
#include "cds/pricer.hpp"
#include "cds/schedule.hpp"
#include "cds/vector_kernel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "engines/registry.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace cdsflow {
namespace {

using cds::BatchPricer;
using cds::CdsOption;
using cds::TermStructure;

/// Kernel parity bar: the spec demands <= 1e-9 relative; the kernel matches
/// the reference association order, so we hold it far tighter.
constexpr double kParityTol = 1e-12;

void expect_parity(const BatchPricer& batch, const cds::ReferencePricer& ref,
                   const std::vector<CdsOption>& book) {
  const auto got = batch.price(book);
  ASSERT_EQ(got.size(), book.size());
  for (std::size_t i = 0; i < book.size(); ++i) {
    const double want = ref.spread_bps(book[i]);
    EXPECT_EQ(got[i].id, book[i].id);
    EXPECT_LE(relative_difference(got[i].spread_bps, want), kParityTol)
        << "option " << i << ": got " << got[i].spread_bps << " want "
        << want;
  }
}

// --- curve-query fast paths -------------------------------------------------------

TEST(InterpolateFast, MatchesScanInterpolationExactly) {
  Rng rng(99);
  for (const std::size_t knots : {1u, 2u, 7u, 64u, 1024u}) {
    const auto curve = workload::paper_interest_curve(knots);
    // Interior, knot-exact, and clamped queries.
    for (int i = 0; i < 500; ++i) {
      const double t = rng.uniform(0.0, curve.max_time() * 1.2);
      EXPECT_EQ(curve.interpolate_fast(t), curve.interpolate(t))
          << "knots=" << knots << " t=" << t;
    }
    for (std::size_t k = 0; k < curve.size(); ++k) {
      EXPECT_EQ(curve.interpolate_fast(curve.time(k)),
                curve.interpolate(curve.time(k)));
    }
    EXPECT_EQ(curve.interpolate_fast(0.0), curve.interpolate(0.0));
    EXPECT_EQ(curve.interpolate_fast(curve.max_time()),
              curve.interpolate(curve.max_time()));
  }
}

TEST(HazardPrefix, MatchesInOrderIntegrationExactly) {
  Rng rng(7);
  for (const std::size_t knots : {1u, 2u, 7u, 64u, 1024u}) {
    const auto hazard = workload::paper_hazard_curve(knots);
    const auto prefix = cds::make_hazard_prefix(hazard);
    for (int i = 0; i < 500; ++i) {
      // Past-the-end draws exercise the last-rate extrapolation tail.
      const double t = rng.uniform(0.0, hazard.max_time() * 1.5);
      EXPECT_EQ(cds::integrated_hazard_prefix(prefix, t),
                cds::integrated_hazard(hazard, t))
          << "knots=" << knots << " t=" << t;
      EXPECT_EQ(cds::survival_probability_prefix(prefix, t),
                cds::survival_probability(hazard, t));
    }
    // Knot-exact queries hit the segment boundary branch.
    for (std::size_t k = 0; k < hazard.size(); ++k) {
      EXPECT_EQ(cds::integrated_hazard_prefix(prefix, hazard.time(k)),
                cds::integrated_hazard(hazard, hazard.time(k)));
    }
    EXPECT_EQ(cds::integrated_hazard_prefix(prefix, 0.0), 0.0);
  }
}

TEST(HazardPrefix, RejectsNegativeTime) {
  const auto prefix =
      cds::make_hazard_prefix(workload::paper_hazard_curve(8));
  EXPECT_THROW(cds::integrated_hazard_prefix(prefix, -0.5), Error);
}

// --- make_schedule buffer overload ------------------------------------------------

TEST(ScheduleBuffer, AppendOverloadMatchesAllocatingOverload) {
  const CdsOption a{.id = 0, .maturity_years = 7.3, .payment_frequency = 4.0,
                    .recovery_rate = 0.4};
  const CdsOption b{.id = 1, .maturity_years = 1.0, .payment_frequency = 12.0,
                    .recovery_rate = 0.4};
  std::vector<cds::TimePoint> buffer;
  const std::size_t n_a = cds::make_schedule(a, buffer);
  const std::size_t n_b = cds::make_schedule(b, buffer);  // appends after a

  const auto want_a = cds::make_schedule(a);
  const auto want_b = cds::make_schedule(b);
  EXPECT_EQ(n_a, want_a.size());
  EXPECT_EQ(n_b, want_b.size());
  ASSERT_EQ(buffer.size(), want_a.size() + want_b.size());
  for (std::size_t i = 0; i < want_a.size(); ++i) {
    EXPECT_EQ(buffer[i].t, want_a[i].t);
    EXPECT_EQ(buffer[i].dt, want_a[i].dt);
  }
  for (std::size_t i = 0; i < want_b.size(); ++i) {
    EXPECT_EQ(buffer[want_a.size() + i].t, want_b[i].t);
    EXPECT_EQ(buffer[want_a.size() + i].dt, want_b[i].dt);
  }
}

TEST(ScheduleBuffer, ArenaAppendGrowsGeometrically) {
  // Appending thousands of schedules into one arena must not reallocate per
  // append (a reserve(size + n) per call turns arena filling quadratic --
  // this is the batch pricer's hot construction path).
  std::vector<cds::TimePoint> buffer;
  std::size_t reallocations = 0;
  std::size_t last_capacity = buffer.capacity();
  for (int i = 0; i < 4000; ++i) {
    const CdsOption option{i, 1.0 + 0.002 * i, 4.0, 0.4};
    cds::make_schedule(option, buffer);
    if (buffer.capacity() != last_capacity) {
      ++reallocations;
      last_capacity = buffer.capacity();
    }
  }
  EXPECT_GT(buffer.size(), 50'000u);
  EXPECT_LT(reallocations, 40u);
}

// --- batch kernel parity ----------------------------------------------------------

TEST(BatchPricer, RandomisedParityAcrossKnotCounts) {
  for (const std::size_t knots : {1u, 3u, 17u, 129u}) {
    SCOPED_TRACE(knots);
    const auto interest = workload::paper_interest_curve(knots, 5);
    const auto hazard = workload::paper_hazard_curve(knots, 6);
    const BatchPricer batch(interest, hazard);
    const cds::ReferencePricer ref(interest, hazard);

    workload::PortfolioSpec spec;
    spec.count = 200;
    spec.frequencies = {1.0, 2.0, 4.0, 12.0};
    spec.frequency_weights = {1.0, 1.0, 4.0, 1.0};
    spec.seed = 1000 + knots;
    expect_parity(batch, ref, workload::make_portfolio(spec));
  }
}

TEST(BatchPricer, EdgeCaseMaturities) {
  const auto interest = workload::paper_interest_curve(64);
  // Short hazard curve: maturities beyond its last knot exercise the
  // last-rate extrapolation in the precomputed survival grid.
  workload::CurveSpec hazard_spec;
  hazard_spec.points = 16;
  hazard_spec.span_years = 5.0;
  hazard_spec.shape = workload::CurveShape::kStressed;
  const auto hazard = workload::make_curve(hazard_spec);

  std::vector<CdsOption> book;
  std::int32_t id = 0;
  // Stub periods just short of a payment date, exact payment-date
  // maturities, single-period options, and beyond-last-knot maturities.
  for (const double maturity : {4.999, 5.0, 5.0 - 1e-11, 0.1, 0.25, 1.0 / 3.0,
                                7.5, 10.0, 29.9}) {
    for (const double frequency : {1.0, 4.0, 2.5}) {
      book.push_back({id++, maturity, frequency, 0.35});
    }
  }
  const BatchPricer batch(interest, hazard);
  const cds::ReferencePricer ref(interest, hazard);
  expect_parity(batch, ref, book);
}

TEST(BatchPricer, SinglePeriodOption) {
  const auto interest = workload::paper_interest_curve(32);
  const auto hazard = workload::paper_hazard_curve(32);
  const BatchPricer batch(interest, hazard);
  const cds::ReferencePricer ref(interest, hazard);
  // Maturity below one payment period: the schedule is the single stub
  // point at maturity.
  const std::vector<CdsOption> book{{7, 0.07, 4.0, 0.55}};
  ASSERT_EQ(cds::schedule_size(book[0]), 1u);
  expect_parity(batch, ref, book);
}

TEST(BatchPricer, DedupAccountingOnStandardTenorBook) {
  const auto scenario = workload::smoke_scenario(4);
  workload::PortfolioSpec spec;
  spec.count = 512;
  spec.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.seed = 31;
  const auto book = workload::make_portfolio(spec);

  const BatchPricer batch(scenario.interest, scenario.hazard);
  BatchPricer::Workspace ws;
  std::vector<cds::SpreadResult> out(book.size());
  const auto stats = batch.price(book, out, ws);

  EXPECT_EQ(stats.options, book.size());
  // 5 tenors x 1 frequency: the whole book collapses to 5 grids.
  EXPECT_EQ(stats.unique_schedules, 5u);
  // Tabulated points: the quarterly ladder to the 10y grid's 39 points
  // before its stub, plus one stub per grid.
  EXPECT_EQ(stats.grid_points, 39u + 5u);
  EXPECT_EQ(stats.scalar_points,
            workload::total_time_points(book));
  EXPECT_LT(stats.grid_points, stats.scalar_points / 50);

  // Workspace reuse across calls keeps results identical.
  std::vector<cds::SpreadResult> again(book.size());
  batch.price(book, again, ws);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(again[i].spread_bps, out[i].spread_bps);
  }
}

TEST(BatchPricer, PrecomputedGridsMatchReferenceCurveMath) {
  const auto interest = workload::paper_interest_curve(48);
  const auto hazard = workload::paper_hazard_curve(48);
  const BatchPricer batch(interest, hazard);
  // Two options share the 5y-quarterly grid; one brings its own.
  const std::vector<CdsOption> book{
      {0, 5.0, 4.0, 0.4}, {1, 2.5, 2.0, 0.3}, {2, 5.0, 4.0, 0.1}};
  BatchPricer::Workspace ws;
  std::vector<cds::SpreadResult> out(book.size());
  const auto stats = batch.price(book, out, ws);

  ASSERT_EQ(stats.unique_schedules, 2u);
  // Each grid is its frequency's ladder cut before its last point, then its
  // stub: together exactly make_schedule's points, bit for bit.
  for (std::size_t g = 0; g < stats.unique_schedules; ++g) {
    CdsOption option;
    option.maturity_years = ws.grid_maturity[g];
    option.payment_frequency = ws.grid_frequency[g];
    const auto schedule = cds::make_schedule(option);
    const auto& ladder = ws.ladders[ws.grid_ladder[g]];
    ASSERT_EQ(ws.grid_prefix[g] + 1, schedule.size());
    for (std::size_t i = 0; i < ws.grid_prefix[g]; ++i) {
      EXPECT_EQ(ladder.points[i].t, schedule[i].t);
      EXPECT_EQ(ladder.points[i].dt, schedule[i].dt);
    }
    EXPECT_EQ(ws.stub[g].t, schedule.back().t);
    EXPECT_EQ(ws.stub[g].dt, schedule.back().dt);
  }
  // The tabulated D/Q values -- the intermediates a Greeks pass
  // differentiates -- must equal the reference curve math at every ladder
  // point and stub, and each ladder's running sums the reference walk over
  // those values (its dq_i = Q(t_{i-1}) - Q(t_i) terms included).
  std::size_t points = 0;
  for (const auto& ladder : ws.ladders) {
    ASSERT_EQ(ladder.discount.size(), ladder.points.size());
    ASSERT_EQ(ladder.survival.size(), ladder.points.size());
    ASSERT_EQ(ladder.sums.size(), ladder.points.size());
    double q_prev = 1.0;
    cds::detail::LegSums walk;
    for (std::size_t i = 0; i < ladder.points.size(); ++i) {
      const cds::TimePoint& p = ladder.points[i];
      const double q = cds::survival_probability(hazard, p.t);
      EXPECT_EQ(ladder.discount[i], cds::discount_factor(interest, p.t));
      EXPECT_EQ(ladder.survival[i], q);
      const cds::LegTerms terms =
          cds::leg_terms(interest, q_prev, q, p.t, p.dt);
      walk.premium += terms.premium;
      walk.accrual += terms.accrual;
      walk.payoff += terms.payoff;
      EXPECT_EQ(ladder.sums[i].premium, walk.premium);
      EXPECT_EQ(ladder.sums[i].accrual, walk.accrual);
      EXPECT_EQ(ladder.sums[i].payoff, walk.payoff);
      q_prev = q;
    }
    points += ladder.points.size();
  }
  for (std::size_t g = 0; g < ws.tabulated_grids(); ++g) {
    EXPECT_EQ(ws.stub_discount[g],
              cds::discount_factor(interest, ws.stub[g].t));
    EXPECT_EQ(ws.stub_survival[g],
              cds::survival_probability(hazard, ws.stub[g].t));
  }
  // 5y quarterly: 19 ladder points; 2.5y semi-annual: 4; two stubs.
  EXPECT_EQ(points, 19u + 4u);
  EXPECT_EQ(stats.grid_points, points + 2u);
}

TEST(BatchPricer, WorkspaceNeverReusesAnotherCurvesSearchTables) {
  // A workspace keeps the knot-search tables of the curves it last
  // tabulated, and any pricer may be handed it. Pricers A and B have the
  // same knot count but different knot times (30y vs 20y span): pricing
  // A, B, then A again through one Workspace and one RiskWorkspace must
  // give a fresh workspace's bits every time.
  const auto level = cds::simd::detect_level();
  const BatchPricer a(workload::paper_interest_curve(1024, 5),
                      workload::paper_hazard_curve(1024, 6), level);
  workload::CurveSpec spec;
  spec.points = 1024;
  spec.span_years = 20.0;
  spec.base_rate = 0.02;
  const auto b_interest = workload::make_curve(spec);
  spec.base_rate = 0.015;
  spec.shape = workload::CurveShape::kHumped;
  const BatchPricer b(b_interest, workload::make_curve(spec), level);

  workload::PortfolioSpec book_spec;
  book_spec.count = 300;
  book_spec.frequencies = {1.0, 2.0, 4.0, 12.0};
  book_spec.frequency_weights = {1.0, 1.0, 4.0, 1.0};
  book_spec.seed = 1515;
  const auto book = workload::make_portfolio(book_spec);
  cds::BatchRiskConfig risk_config;
  risk_config.ladder_edges = {0.0, 2.0, 5.0, 10.0, 30.0};
  const std::size_t buckets = risk_config.ladder_edges.size() - 1;

  BatchPricer::Workspace ws;
  BatchPricer::RiskWorkspace risk_ws;
  for (const BatchPricer* pricer : {&a, &b, &a}) {
    SCOPED_TRACE(pricer == &a ? "pricer A" : "pricer B");
    std::vector<cds::SpreadResult> spreads(book.size());
    pricer->price(book, spreads, ws);
    const auto fresh = pricer->price(book);
    for (std::size_t i = 0; i < book.size(); ++i) {
      ASSERT_EQ(spreads[i].spread_bps, fresh[i].spread_bps) << "option " << i;
    }

    std::vector<cds::Sensitivities> sens(book.size());
    std::vector<double> ladder(book.size() * buckets);
    pricer->price_with_sensitivities(book, sens, ladder, risk_ws, risk_config);
    const auto fresh_risk = pricer->price_with_sensitivities(book, risk_config);
    for (std::size_t i = 0; i < book.size(); ++i) {
      SCOPED_TRACE("option " + std::to_string(i));
      const cds::Sensitivities& want = fresh_risk.sensitivities[i];
      ASSERT_EQ(sens[i].spread_bps, want.spread_bps);
      ASSERT_EQ(sens[i].cs01, want.cs01);
      ASSERT_EQ(sens[i].ir01, want.ir01);
      ASSERT_EQ(sens[i].rec01, want.rec01);
      ASSERT_EQ(sens[i].jtd, want.jtd);
      for (std::size_t k = 0; k < buckets; ++k) {
        ASSERT_EQ(ladder[i * buckets + k],
                  fresh_risk.cs01_ladder[i * buckets + k])
            << "bucket " << k;
      }
    }
  }
}

TEST(BatchPricer, EmptyBatchAndSizeMismatch) {
  const auto scenario = workload::smoke_scenario(4);
  const BatchPricer batch(scenario.interest, scenario.hazard);
  BatchPricer::Workspace ws;
  const auto stats = batch.price(std::span<const CdsOption>{},
                                 std::span<cds::SpreadResult>{}, ws);
  EXPECT_EQ(stats.options, 0u);
  EXPECT_EQ(stats.unique_schedules, 0u);

  std::vector<cds::SpreadResult> too_small(1);
  EXPECT_THROW(batch.price(scenario.options, too_small, ws), Error);
  EXPECT_THROW(batch.price({CdsOption{0, -1.0, 4.0, 0.4}}), Error);
}

// --- engine + runtime wiring ------------------------------------------------------

TEST(CpuBatchEngine, RegistryParsesBatchNames) {
  const auto scenario = workload::smoke_scenario(8);
  auto one = engine::make_engine("cpu-batch", scenario.interest,
                                 scenario.hazard);
  EXPECT_EQ(one->name(), "cpu-batch");
  const auto run = one->price(scenario.options);
  EXPECT_EQ(run.results.size(), scenario.options.size());
  EXPECT_THROW(engine::make_engine("cpu-batch-mt2", scenario.interest,
                                   scenario.hazard),
               Error);
}

TEST(CpuBatchEngine, MatchesScalarCpuEngine) {
  const auto scenario = workload::paper_scenario(128, 17);
  auto scalar = engine::make_engine("cpu", scenario.interest,
                                    scenario.hazard);
  auto batch = engine::make_engine("cpu-batch", scenario.interest,
                                   scenario.hazard);
  const auto want = scalar->price(scenario.options);
  const auto got = batch->price(scenario.options);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].id, want.results[i].id);
    EXPECT_LE(relative_difference(got.results[i].spread_bps,
                                  want.results[i].spread_bps),
              kParityTol)
        << "at " << i;
  }
}

TEST(CpuBatchEngine, DeterministicThroughPortfolioRuntime) {
  const auto scenario = workload::smoke_scenario(53, 29);
  std::vector<cds::SpreadResult> reference;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    runtime::RuntimeConfig cfg;
    cfg.engine = "cpu-batch";
    cfg.workers = workers;
    cfg.shard_size = 7;  // ragged final shard: 53 = 7*7 + 4
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    const auto run = rt.price(scenario.options);
    ASSERT_EQ(run.run.results.size(), scenario.options.size());
    if (reference.empty()) {
      reference = run.run.results;
      // Shard-boundary parity against the unsharded scalar reference.
      const cds::ReferencePricer ref(scenario.interest, scenario.hazard);
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_LE(relative_difference(reference[i].spread_bps,
                                      ref.spread_bps(scenario.options[i])),
                  kParityTol);
      }
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(run.run.results[i].id, reference[i].id);
        EXPECT_EQ(run.run.results[i].spread_bps, reference[i].spread_bps)
            << "at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cdsflow
