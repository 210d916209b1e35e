/// \file test_batch_risk.cpp
/// The batched risk kernel: randomized parity of CS01/IR01/Rec01/JTD and the
/// bucketed CS01 ladder against the scalar compute_sensitivities /
/// cs01_ladder reference across knot counts and tenor books, input
/// validation, risk-mode engines through the registry, and determinism of
/// sensitivity merging through the sharded portfolio runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/risk.hpp"
#include "cds/stream_pricer.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "engines/registry.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace cdsflow {
namespace {

using cds::BatchPricer;
using cds::BatchRiskConfig;
using cds::CdsOption;
using cds::Sensitivities;
using cds::TermStructure;

/// The documented tolerance: the kernel mirrors the scalar association
/// order, so it holds far below the 1e-9 acceptance bound.
constexpr double kParityTol = 1e-12;

void expect_close(double got, double want, const char* what, std::size_t i) {
  EXPECT_LE(relative_difference(got, want), kParityTol)
      << what << " of option " << i << ": got " << got << " want " << want;
}

void expect_risk_parity(const TermStructure& interest,
                        const TermStructure& hazard,
                        const std::vector<CdsOption>& book,
                        const BatchRiskConfig& config = {}) {
  const BatchPricer batch(interest, hazard);
  const auto run = batch.price_with_sensitivities(book, config);
  ASSERT_EQ(run.sensitivities.size(), book.size());
  ASSERT_EQ(run.cs01_ladder.size(), book.size() * run.ladder_buckets);
  for (std::size_t i = 0; i < book.size(); ++i) {
    const auto want =
        cds::compute_sensitivities(interest, hazard, book[i], config.bump);
    const auto& got = run.sensitivities[i];
    expect_close(got.spread_bps, want.spread_bps, "spread", i);
    expect_close(got.cs01, want.cs01, "cs01", i);
    expect_close(got.ir01, want.ir01, "ir01", i);
    expect_close(got.rec01, want.rec01, "rec01", i);
    EXPECT_EQ(got.jtd, want.jtd) << "jtd of option " << i;
    if (run.ladder_buckets > 0) {
      const auto want_ladder = cds::cs01_ladder(interest, hazard, book[i],
                                                config.ladder_edges,
                                                config.bump);
      ASSERT_EQ(want_ladder.size(), run.ladder_buckets);
      for (std::size_t b = 0; b < run.ladder_buckets; ++b) {
        expect_close(run.cs01_ladder[i * run.ladder_buckets + b],
                     want_ladder[b], "ladder bucket", i);
      }
    }
  }
}

// --- parity -----------------------------------------------------------------

TEST(BatchRisk, RandomisedParityAcrossKnotCounts) {
  for (const std::size_t knots : {1u, 3u, 17u, 129u}) {
    SCOPED_TRACE(knots);
    const auto interest = workload::paper_interest_curve(knots, 5);
    const auto hazard = workload::paper_hazard_curve(knots, 6);
    workload::PortfolioSpec spec;
    spec.count = 60;
    spec.frequencies = {1.0, 2.0, 4.0, 12.0};
    spec.frequency_weights = {1.0, 1.0, 4.0, 1.0};
    spec.seed = 2000 + knots;
    expect_risk_parity(interest, hazard, workload::make_portfolio(spec));
  }
}

TEST(BatchRisk, TenorBookParityWithLadder) {
  const auto interest = workload::paper_interest_curve(256);
  const auto hazard = workload::paper_hazard_curve(256);
  workload::PortfolioSpec spec;
  spec.count = 150;
  spec.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.seed = 77;
  BatchRiskConfig config;
  config.ladder_edges = {0.0, 1.0, 3.0, 5.0, 7.0, 10.0};
  expect_risk_parity(interest, hazard, workload::make_portfolio(spec),
                     config);
}

TEST(BatchRisk, NonDefaultBumpParity) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  workload::PortfolioSpec spec;
  spec.count = 40;
  spec.seed = 5;
  BatchRiskConfig config;
  config.bump = 5e-4;
  config.ladder_edges = {0.0, 5.0, 30.0};
  expect_risk_parity(interest, hazard, workload::make_portfolio(spec),
                     config);
}

TEST(BatchRisk, EdgeCaseMaturities) {
  // Short hazard curve so maturities extrapolate beyond the last knot, plus
  // stub and single-period schedules -- the same edge set the pricing-kernel
  // tests walk.
  const auto interest = workload::paper_interest_curve(64);
  workload::CurveSpec hazard_spec;
  hazard_spec.points = 16;
  hazard_spec.span_years = 5.0;
  hazard_spec.shape = workload::CurveShape::kStressed;
  const auto hazard = workload::make_curve(hazard_spec);

  std::vector<CdsOption> book;
  std::int32_t id = 0;
  for (const double maturity : {0.07, 0.25, 4.999, 5.0, 7.5, 29.9}) {
    for (const double recovery : {0.0, 0.4, 0.95}) {
      book.push_back({id++, maturity, 4.0, recovery});
    }
  }
  BatchRiskConfig config;
  config.ladder_edges = {0.0, 2.0, 6.0};
  expect_risk_parity(interest, hazard, book, config);
}

// --- bit pin against the bumped batch loop ----------------------------------

/// What the risk kernel must reproduce bit for bit: BatchPricer::price at
/// the kernel's level on every parallel- or bucket-bumped curve and on the
/// recovery-shifted books, combined with compute_sensitivities' /
/// cs01_ladder's expressions.
struct BumpedLoop {
  std::vector<Sensitivities> sensitivities;
  std::vector<double> ladder;  ///< row-major [option][bucket]
};

BumpedLoop bumped_batch_loop(const TermStructure& interest,
                             const TermStructure& hazard,
                             const std::vector<CdsOption>& book,
                             const BatchRiskConfig& config,
                             cds::simd::Level level) {
  const double bump = config.bump;
  const auto spreads = [&](const TermStructure& i, const TermStructure& h,
                           const std::vector<CdsOption>& options) {
    return BatchPricer(i, h, level).price(options);
  };
  const auto central = [&](const std::vector<cds::SpreadResult>& up,
                           const std::vector<cds::SpreadResult>& dn,
                           std::size_t k) {
    return (up[k].spread_bps - dn[k].spread_bps) / (2.0 * bump) * 1e-4;
  };
  const auto base = spreads(interest, hazard, book);
  const auto hazard_up = spreads(interest, cds::parallel_bump(hazard, bump),
                                 book);
  const auto hazard_dn = spreads(interest, cds::parallel_bump(hazard, -bump),
                                 book);
  const auto interest_up =
      spreads(cds::parallel_bump(interest, bump), hazard, book);
  const auto interest_dn =
      spreads(cds::parallel_bump(interest, -bump), hazard, book);
  std::vector<CdsOption> recovery_up = book;
  std::vector<CdsOption> recovery_dn = book;
  for (std::size_t k = 0; k < book.size(); ++k) {
    const double r = book[k].recovery_rate;
    const double rb = std::min(bump, 0.5 * (1.0 - r));
    recovery_up[k].recovery_rate = r + rb;
    recovery_dn[k].recovery_rate = std::max(0.0, r - rb);
  }
  const auto rec_up = spreads(interest, hazard, recovery_up);
  const auto rec_dn = spreads(interest, hazard, recovery_dn);

  BumpedLoop loop;
  loop.sensitivities.resize(book.size());
  for (std::size_t k = 0; k < book.size(); ++k) {
    Sensitivities& s = loop.sensitivities[k];
    s.spread_bps = base[k].spread_bps;
    s.cs01 = central(hazard_up, hazard_dn, k);
    s.ir01 = central(interest_up, interest_dn, k);
    s.rec01 = (rec_up[k].spread_bps - rec_dn[k].spread_bps) /
              (recovery_up[k].recovery_rate - recovery_dn[k].recovery_rate) *
              0.01;
    s.jtd = 1.0 - book[k].recovery_rate;
  }
  const auto& edges = config.ladder_edges;
  const std::size_t buckets = edges.empty() ? 0 : edges.size() - 1;
  loop.ladder.resize(book.size() * buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto up = spreads(
        interest, cds::bucket_bump(hazard, edges[b], edges[b + 1], bump),
        book);
    const auto dn = spreads(
        interest, cds::bucket_bump(hazard, edges[b], edges[b + 1], -bump),
        book);
    for (std::size_t k = 0; k < book.size(); ++k) {
      loop.ladder[k * buckets + b] = central(up, dn, k);
    }
  }
  return loop;
}

/// Tallies bit-pattern comparisons; reports the first few mismatches.
struct BitTally {
  std::size_t compared = 0;
  std::size_t differ = 0;

  void check(double got, double want, const char* what, std::size_t i) {
    ++compared;
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(want)) {
      return;
    }
    if (++differ <= 10) {
      ADD_FAILURE() << what << " of option " << i << ": got " << got
                    << " want " << want;
    }
  }
};

TEST(BatchRisk, EveryLevelBitMatchesTheBumpedBatchLoop) {
  // RiskParityWithinContract holds vector-level Greeks to greek_tolerance
  // only; this pins every level bitwise to the loop of plain batch pricings
  // the risk pass stands in for. The ladders give 2, 8 and 14 hazard
  // scenarios, so 4- and 8-lane scenario groups run full and partial.
  using Level = cds::simd::Level;
  std::vector<Level> levels;
  for (const Level requested : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    const Level level = cds::simd::resolve_level(requested);
    if (std::find(levels.begin(), levels.end(), level) == levels.end()) {
      levels.push_back(level);
    }
  }
  BatchRiskConfig no_ladder;
  BatchRiskConfig open_ended;
  open_ended.bump = 5e-4;
  open_ended.ladder_edges = {0.0, 2.0, 7.0,
                             std::numeric_limits<double>::infinity()};
  BatchRiskConfig eod_ladder;
  eod_ladder.ladder_edges = {0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0};

  workload::PortfolioSpec continuous;
  continuous.count = 300;
  continuous.frequencies = {1.0, 2.0, 4.0, 12.0};
  continuous.frequency_weights = {1.0, 1.0, 4.0, 1.0};
  continuous.seed = 1717;
  workload::PortfolioSpec tenor;
  tenor.count = 300;
  tenor.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  tenor.seed = 1718;
  const std::vector<std::vector<CdsOption>> books = {
      workload::make_portfolio(continuous), workload::make_portfolio(tenor)};

  BitTally tally;
  for (const Level level : levels) {
    SCOPED_TRACE(cds::simd::to_string(level));
    for (const std::size_t knots : {1u, 2u, 17u, 129u, 1024u}) {
      SCOPED_TRACE("knots " + std::to_string(knots));
      const auto interest = workload::paper_interest_curve(knots, 5);
      const auto hazard = workload::paper_hazard_curve(knots, 6);
      const BatchPricer batch(interest, hazard, level);
      for (const auto& book : books) {
        for (const BatchRiskConfig* config :
             {&no_ladder, &open_ended, &eod_ladder}) {
          SCOPED_TRACE("ladder edges " +
                       std::to_string(config->ladder_edges.size()));
          const auto run = batch.price_with_sensitivities(book, *config);
          const auto want =
              bumped_batch_loop(interest, hazard, book, *config, level);
          ASSERT_EQ(run.sensitivities.size(), book.size());
          ASSERT_EQ(run.cs01_ladder.size(), want.ladder.size());
          for (std::size_t i = 0; i < book.size(); ++i) {
            const Sensitivities& got = run.sensitivities[i];
            const Sensitivities& loop = want.sensitivities[i];
            tally.check(got.spread_bps, loop.spread_bps, "spread", i);
            tally.check(got.cs01, loop.cs01, "cs01", i);
            tally.check(got.ir01, loop.ir01, "ir01", i);
            tally.check(got.rec01, loop.rec01, "rec01", i);
            tally.check(got.jtd, loop.jtd, "jtd", i);
          }
          for (std::size_t k = 0; k < want.ladder.size(); ++k) {
            tally.check(run.cs01_ladder[k], want.ladder[k],
                             "ladder entry", k / run.ladder_buckets);
          }
        }
      }
    }
  }
  // 300 options x 2 books x 5 knot counts x (3 x 5 Greeks + 9 buckets).
  EXPECT_EQ(tally.differ, 0u);
  EXPECT_EQ(tally.compared, levels.size() * 300 * 2 * 5 * 24);
}

// --- accounting and validation ----------------------------------------------

TEST(BatchRisk, BlocksOfGridsBitMatchTheBumpedBatchLoop) {
  // The risk pass runs its scenarios over blocks of at most 4,096 grids,
  // each block carrying every ladder. 5,000 continuous maturities over four
  // frequencies span two blocks and must still equal the loop of plain
  // batch pricings bit for bit at the host's level.
  const auto level = cds::simd::detect_level();
  const auto interest = workload::paper_interest_curve(129, 5);
  const auto hazard = workload::paper_hazard_curve(129, 6);
  workload::PortfolioSpec spec;
  spec.count = 5000;
  spec.frequencies = {1.0, 2.0, 4.0, 12.0};
  spec.frequency_weights = {1.0, 1.0, 4.0, 1.0};
  spec.seed = 1719;
  const auto book = workload::make_portfolio(spec);
  BatchRiskConfig config;
  config.ladder_edges = {0.0, 2.0, 5.0, 10.0};

  const auto run =
      BatchPricer(interest, hazard, level).price_with_sensitivities(book,
                                                                    config);
  ASSERT_GT(run.stats.base.unique_schedules, 4096u);
  const auto want = bumped_batch_loop(interest, hazard, book, config, level);
  BitTally tally;
  for (std::size_t i = 0; i < book.size(); ++i) {
    const Sensitivities& got = run.sensitivities[i];
    const Sensitivities& loop = want.sensitivities[i];
    tally.check(got.spread_bps, loop.spread_bps, "spread", i);
    tally.check(got.cs01, loop.cs01, "cs01", i);
    tally.check(got.ir01, loop.ir01, "ir01", i);
    tally.check(got.rec01, loop.rec01, "rec01", i);
  }
  ASSERT_EQ(run.cs01_ladder.size(), want.ladder.size());
  for (std::size_t k = 0; k < want.ladder.size(); ++k) {
    tally.check(run.cs01_ladder[k], want.ladder[k], "ladder entry", k / 3);
  }
  EXPECT_EQ(tally.differ, 0u);
}

TEST(BatchRisk, StatsAccountForBumpedTabulations) {
  const auto scenario = workload::smoke_scenario(4);
  workload::PortfolioSpec spec;
  spec.count = 128;
  spec.maturity_tenor_grid = {1.0, 5.0};
  spec.seed = 9;
  const auto book = workload::make_portfolio(spec);
  const BatchPricer batch(scenario.interest, scenario.hazard);

  BatchRiskConfig config;
  config.ladder_edges = {0.0, 3.0, 10.0};  // 2 buckets
  const auto run = batch.price_with_sensitivities(book, config);
  EXPECT_EQ(run.stats.base.options, book.size());
  EXPECT_EQ(run.stats.base.unique_schedules, 2u);
  // 4 parallel scenarios + 2 per bucket, each walking every grid point.
  EXPECT_EQ(run.stats.bumped_grid_points, 8 * run.stats.base.grid_points);
  // The scalar loop pays 7 repricings per option plus 2 per bucket.
  EXPECT_EQ(run.stats.scalar_repricings, book.size() * 11);
}

TEST(BatchRisk, WorkspaceReuseIsDeterministic) {
  const auto scenario = workload::smoke_scenario(4);
  workload::PortfolioSpec spec;
  spec.count = 64;
  spec.seed = 3;
  const auto book = workload::make_portfolio(spec);
  const BatchPricer batch(scenario.interest, scenario.hazard);

  BatchRiskConfig config;
  config.ladder_edges = {0.0, 5.0, 30.0};
  BatchPricer::RiskWorkspace ws;
  std::vector<Sensitivities> first(book.size()), second(book.size());
  std::vector<double> ladder_first(book.size() * 2),
      ladder_second(book.size() * 2);
  batch.price_with_sensitivities(book, first, ladder_first, ws, config);
  batch.price_with_sensitivities(book, second, ladder_second, ws, config);
  for (std::size_t i = 0; i < book.size(); ++i) {
    EXPECT_EQ(first[i].cs01, second[i].cs01);
    EXPECT_EQ(first[i].ir01, second[i].ir01);
    EXPECT_EQ(first[i].rec01, second[i].rec01);
  }
  EXPECT_EQ(ladder_first, ladder_second);
}

TEST(BatchRisk, ValidatesInputs) {
  const auto scenario = workload::smoke_scenario(4);
  const BatchPricer batch(scenario.interest, scenario.hazard);
  BatchPricer::RiskWorkspace ws;
  std::vector<Sensitivities> out(scenario.options.size());

  BatchRiskConfig bad_bump;
  bad_bump.bump = 0.0;
  EXPECT_THROW(batch.price_with_sensitivities(scenario.options, out, {}, ws,
                                              bad_bump),
               Error);

  BatchRiskConfig one_edge;
  one_edge.ladder_edges = {1.0};
  EXPECT_THROW(batch.price_with_sensitivities(scenario.options, out, {}, ws,
                                              one_edge),
               Error);

  BatchRiskConfig decreasing;
  decreasing.ladder_edges = {2.0, 1.0};
  EXPECT_THROW(batch.price_with_sensitivities(scenario.options, out, {}, ws,
                                              decreasing),
               Error);

  // ladder_out sized for the wrong bucket count.
  BatchRiskConfig two_buckets;
  two_buckets.ladder_edges = {0.0, 1.0, 2.0};
  std::vector<double> wrong_ladder(scenario.options.size());
  EXPECT_THROW(batch.price_with_sensitivities(scenario.options, out,
                                              wrong_ladder, ws, two_buckets),
               Error);

  std::vector<Sensitivities> too_small(1);
  EXPECT_THROW(batch.price_with_sensitivities(scenario.options, too_small,
                                              {}, ws, {}),
               Error);
}

TEST(BatchRisk, EmptyBatch) {
  const auto scenario = workload::smoke_scenario(4);
  const BatchPricer batch(scenario.interest, scenario.hazard);
  BatchPricer::RiskWorkspace ws;
  const auto stats = batch.price_with_sensitivities(
      std::span<const CdsOption>{}, std::span<Sensitivities>{}, {}, ws, {});
  EXPECT_EQ(stats.base.options, 0u);
  EXPECT_EQ(stats.bumped_grid_points, 0u);
}

// --- engine + runtime wiring ------------------------------------------------

TEST(RiskEngines, RegistryParsesRiskNames) {
  const auto scenario = workload::smoke_scenario(8);
  auto batch_risk = engine::make_engine("cpu-batch-risk", scenario.interest,
                                        scenario.hazard);
  EXPECT_EQ(batch_risk->name(), "cpu-batch-risk");
  auto scalar_risk = engine::make_engine("cpu-risk", scenario.interest,
                                         scenario.hazard);
  EXPECT_EQ(scalar_risk->name(), "cpu-risk");
  EXPECT_THROW(engine::make_engine("cpu-batch-risk-mt2", scenario.interest,
                                   scenario.hazard),
               Error);
}

TEST(RiskEngines, NegativeInfiniteFirstEdgeFailsAtConstruction) {
  // Only the last ladder edge may be infinite: a risk engine or a risk-mode
  // stream pricer given a -inf first edge must refuse it when built, not
  // on its first price() call.
  const auto scenario = workload::smoke_scenario(8);
  const double inf = std::numeric_limits<double>::infinity();
  engine::CpuEngineConfig cfg;
  cfg.ladder_edges = {-inf, 1.0, 2.0};
  EXPECT_THROW(engine::make_engine("cpu-vec-risk", scenario.interest,
                                   scenario.hazard, {}, cfg),
               Error);
  cds::StreamPricerConfig stream_cfg;
  stream_cfg.risk_mode = true;
  stream_cfg.ladder_edges = {-inf, 1.0, 2.0};
  EXPECT_THROW(
      cds::StreamPricer(scenario.interest, scenario.hazard, stream_cfg),
      Error);
}

TEST(RiskEngines, RiskModeFillsSensitivitiesAndSpreads) {
  const auto scenario = workload::paper_scenario(48, 17);
  engine::CpuEngineConfig cfg;
  cfg.ladder_edges = {0.0, 5.0, 30.0};
  auto engine = engine::make_engine("cpu-batch-risk", scenario.interest,
                                    scenario.hazard, {}, cfg);
  const auto run = engine->price(scenario.options);
  ASSERT_EQ(run.results.size(), scenario.options.size());
  ASSERT_EQ(run.sensitivities.size(), scenario.options.size());
  EXPECT_EQ(run.ladder_buckets, 2u);
  ASSERT_EQ(run.cs01_ladder.size(), 2 * scenario.options.size());
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    EXPECT_EQ(run.results[i].id, scenario.options[i].id);
    // The spread column must agree with the sensitivity record, so risk
    // runs merge through the runtime exactly like pricing runs.
    EXPECT_EQ(run.results[i].spread_bps, run.sensitivities[i].spread_bps);
  }
}

TEST(RiskEngines, ScalarAndBatchRiskEnginesAgree) {
  const auto scenario = workload::paper_scenario(40, 9);
  engine::CpuEngineConfig cfg;
  cfg.ladder_edges = {0.0, 2.0, 10.0};
  auto scalar = engine::make_engine("cpu-risk", scenario.interest,
                                    scenario.hazard, {}, cfg);
  auto batch = engine::make_engine("cpu-batch-risk", scenario.interest,
                                   scenario.hazard, {}, cfg);
  const auto want = scalar->price(scenario.options);
  const auto got = batch->price(scenario.options);
  ASSERT_EQ(want.sensitivities.size(), got.sensitivities.size());
  ASSERT_EQ(want.cs01_ladder.size(), got.cs01_ladder.size());
  for (std::size_t i = 0; i < want.sensitivities.size(); ++i) {
    expect_close(got.sensitivities[i].cs01, want.sensitivities[i].cs01,
                 "cs01", i);
    expect_close(got.sensitivities[i].ir01, want.sensitivities[i].ir01,
                 "ir01", i);
    expect_close(got.sensitivities[i].rec01, want.sensitivities[i].rec01,
                 "rec01", i);
  }
  for (std::size_t i = 0; i < want.cs01_ladder.size(); ++i) {
    expect_close(got.cs01_ladder[i], want.cs01_ladder[i], "ladder", i);
  }
}

TEST(RiskEngines, DeterministicThroughPortfolioRuntime) {
  const auto scenario = workload::smoke_scenario(53, 29);
  std::vector<Sensitivities> reference;
  std::vector<double> reference_ladder;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    runtime::RuntimeConfig cfg;
    cfg.engine = "cpu-batch-risk";
    cfg.workers = workers;
    cfg.shard_size = 7;  // ragged final shard: 53 = 7*7 + 4
    cfg.cpu.ladder_edges = {0.0, 5.0, 30.0};
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    const auto run = rt.price(scenario.options);
    ASSERT_EQ(run.run.results.size(), scenario.options.size());
    ASSERT_EQ(run.run.sensitivities.size(), scenario.options.size());
    EXPECT_EQ(run.run.ladder_buckets, 2u);
    ASSERT_EQ(run.run.cs01_ladder.size(), 2 * scenario.options.size());
    if (reference.empty()) {
      reference = run.run.sensitivities;
      reference_ladder = run.run.cs01_ladder;
      // Shard boundaries must not move the values: check against the
      // unsharded scalar reference.
      for (std::size_t i = 0; i < reference.size(); ++i) {
        const auto want = cds::compute_sensitivities(
            scenario.interest, scenario.hazard, scenario.options[i]);
        expect_close(reference[i].cs01, want.cs01, "cs01", i);
        expect_close(reference[i].rec01, want.rec01, "rec01", i);
      }
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(run.run.sensitivities[i].cs01, reference[i].cs01) << i;
        EXPECT_EQ(run.run.sensitivities[i].ir01, reference[i].ir01) << i;
        EXPECT_EQ(run.run.sensitivities[i].rec01, reference[i].rec01) << i;
      }
      EXPECT_EQ(run.run.cs01_ladder, reference_ladder);
    }
  }
}

}  // namespace
}  // namespace cdsflow
