/// \file test_sweep_pricer.cpp
/// The scenario-sweep engine: bit-for-bit parity of every scenario kind
/// against the naive per-scenario BatchPricer loop at both the scalar and
/// the host's active SIMD level, the exactness of the O(grids) extremal-
/// recovery aggregates against the full per-option scan, invariance of the
/// results under scenario grouping / shard size / worker count
/// (SweepRuntime), stats accounting, and input validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/sweep_pricer.hpp"
#include "common/error.hpp"
#include "runtime/shard.hpp"
#include "runtime/sweep_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace cdsflow {
namespace {

using cds::BatchPricer;
using cds::CdsOption;
using cds::ScenarioAggregate;
using cds::ScenarioKind;
using cds::SpreadResult;
using cds::SweepPricer;
using cds::TermStructure;

/// The SIMD levels worth testing on this host: the scalar reference plus
/// the active level when it differs.
std::vector<cds::simd::Level> test_levels() {
  std::vector<cds::simd::Level> levels = {cds::simd::Level::kScalar};
  if (cds::simd::active_level() != cds::simd::Level::kScalar) {
    levels.push_back(cds::simd::active_level());
  }
  return levels;
}

/// A small mixed book: random maturities/frequencies so the dedup finds
/// several distinct grids, random recoveries so the extremal-recovery
/// aggregate is non-trivial per grid.
std::vector<CdsOption> mixed_book(std::size_t count = 96) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.seed = 20210902;
  spec.frequencies = {2.0, 4.0, 12.0};
  spec.frequency_weights = {1.0, 2.0, 1.0};
  return workload::make_portfolio(spec);
}

/// Prices scenario `s` of `set` with a fresh BatchPricer on the scenario's
/// materialised curves -- the naive comparator the sweep must reproduce bit
/// for bit.
std::vector<SpreadResult> naive_scenario(const workload::ScenarioSet& set,
                                         std::size_t s,
                                         const TermStructure& interest,
                                         const TermStructure& hazard,
                                         const std::vector<CdsOption>& book,
                                         cds::simd::Level level) {
  const TermStructure ir =
      set.kind != ScenarioKind::kHazard ? set.rate_curve(s) : interest;
  const TermStructure hz =
      set.kind != ScenarioKind::kRate ? set.hazard_curve(s) : hazard;
  const BatchPricer pricer(ir, hz, level);
  return pricer.price(book);
}

/// Runs the sweep with a per-option sink and checks, for every scenario:
/// sink results bit-equal to the naive loop, and the O(grids) aggregate
/// bit-equal to the full per-option scan of those results.
void expect_sweep_matches_naive(const workload::ScenarioSet& set,
                                const TermStructure& interest,
                                const TermStructure& hazard,
                                const std::vector<CdsOption>& book,
                                cds::simd::Level level) {
  SweepPricer sweep(interest, hazard, book, level);
  std::vector<std::vector<SpreadResult>> per_scenario(set.count);
  std::vector<ScenarioAggregate> aggregates(set.count);
  sweep.sweep(set.matrix(), 0, set.count, aggregates,
              [&](std::size_t s, std::span<const SpreadResult> rs) {
                per_scenario[s].assign(rs.begin(), rs.end());
              });
  for (std::size_t s = 0; s < set.count; ++s) {
    const auto naive =
        naive_scenario(set, s, interest, hazard, book, level);
    ASSERT_EQ(per_scenario[s].size(), naive.size()) << "scenario " << s;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(per_scenario[s][i].id, naive[i].id);
      EXPECT_EQ(per_scenario[s][i].spread_bps, naive[i].spread_bps)
          << "kind " << to_string(set.kind) << " level "
          << cds::simd::to_string(level) << " scenario " << s << " option "
          << i;
    }
    const ScenarioAggregate scan = SweepPricer::aggregate_spreads(naive);
    EXPECT_EQ(aggregates[s].min_spread_bps, scan.min_spread_bps)
        << "scenario " << s;
    EXPECT_EQ(aggregates[s].max_spread_bps, scan.max_spread_bps)
        << "scenario " << s;
  }
}

// --- parity vs the naive per-scenario loop ---------------------------------------

TEST(SweepParity, HazardScenariosBitMatchNaiveLoop) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book();
  // 13 scenarios: exercises partial SIMD groups at every vector width.
  const auto set = workload::mc_hazard_scenarios(hazard, 13);
  for (const auto level : test_levels()) {
    expect_sweep_matches_naive(set, interest, hazard, book, level);
  }
}

TEST(SweepParity, BucketedStressBitMatchesNaiveLoop) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  const auto set = workload::bucketed_stress_scenarios(hazard, 5, 50.0);
  for (const auto level : test_levels()) {
    expect_sweep_matches_naive(set, interest, hazard, book, level);
  }
}

TEST(SweepParity, RateScenariosBitMatchNaiveLoop) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  const auto set = workload::replay_scenarios(interest, 9);
  for (const auto level : test_levels()) {
    expect_sweep_matches_naive(set, interest, hazard, book, level);
  }
}

TEST(SweepParity, JointScenariosBitMatchNaiveLoop) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  const auto set = workload::joint_stress_scenarios(interest, hazard, 9,
                                                    75.0);
  for (const auto level : test_levels()) {
    expect_sweep_matches_naive(set, interest, hazard, book, level);
  }
}

TEST(SweepParity, TenorBookDedupsAndStillMatches) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  workload::PortfolioSpec spec;
  spec.count = 64;
  spec.seed = 5;
  spec.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  const auto book = workload::make_portfolio(spec);
  const auto set = workload::parallel_stress_scenarios(hazard, 11, 100.0);
  for (const auto level : test_levels()) {
    SweepPricer sweep(interest, hazard, book, level);
    EXPECT_LE(sweep.book_stats().unique_schedules, 5u * 3u);
    expect_sweep_matches_naive(set, interest, hazard, book, level);
  }
}

// --- invariance under grouping / sharding / workers ------------------------------

TEST(SweepInvariance, RangeSplitsReproduceFullSweepBitwise) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  const auto set = workload::mc_hazard_scenarios(hazard, 17);
  for (const auto level : test_levels()) {
    SweepPricer sweep(interest, hazard, book, level);
    std::vector<ScenarioAggregate> whole(set.count);
    sweep.sweep(set.matrix(), 0, set.count, whole);
    // Awkward split points: single scenarios, then chunks of 3 -- both
    // misaligned with every SIMD group width.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}}) {
      std::vector<ScenarioAggregate> pieces(set.count);
      for (std::size_t begin = 0; begin < set.count; begin += chunk) {
        const std::size_t end = std::min(set.count, begin + chunk);
        sweep.sweep(set.matrix(), begin, end,
                    std::span<ScenarioAggregate>(pieces).subspan(
                        begin, end - begin));
      }
      for (std::size_t s = 0; s < set.count; ++s) {
        EXPECT_EQ(pieces[s].min_spread_bps, whole[s].min_spread_bps)
            << "chunk " << chunk << " scenario " << s;
        EXPECT_EQ(pieces[s].max_spread_bps, whole[s].max_spread_bps)
            << "chunk " << chunk << " scenario " << s;
      }
    }
  }
}

TEST(SweepInvariance, RuntimeWorkerAndShardCountsAreBitInvariant) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  const auto set = workload::mc_hazard_scenarios(hazard, 23);

  SweepPricer reference(interest, hazard, book, cds::simd::active_level());
  const auto want = reference.sweep(set.matrix());

  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const std::size_t shard_size :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
      runtime::SweepRuntimeConfig cfg;
      cfg.workers = workers;
      cfg.shard_size = shard_size;
      cfg.level = cds::simd::active_level();
      runtime::SweepRuntime rt(interest, hazard, book, cfg);
      const auto run = rt.run(set.matrix());
      ASSERT_EQ(run.aggregates.size(), want.size());
      for (std::size_t s = 0; s < want.size(); ++s) {
        EXPECT_EQ(run.aggregates[s].min_spread_bps, want[s].min_spread_bps)
            << "workers " << workers << " shard " << shard_size
            << " scenario " << s;
        EXPECT_EQ(run.aggregates[s].max_spread_bps, want[s].max_spread_bps)
            << "workers " << workers << " shard " << shard_size
            << " scenario " << s;
      }
      EXPECT_EQ(run.stats.scenarios, set.count);
      EXPECT_EQ(run.shards.size(),
                runtime::plan_shards(set.count, run.shard_size).size());
    }
  }
}

// --- stats accounting ------------------------------------------------------------

TEST(SweepStats, ColumnSharingAccounting) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  SweepPricer sweep(interest, hazard, book, cds::simd::Level::kScalar);
  const std::size_t grids = sweep.book_stats().unique_schedules;
  ASSERT_GT(grids, 1u);

  const auto hz_set = workload::mc_hazard_scenarios(hazard, 10);
  std::vector<ScenarioAggregate> agg(10);
  auto stats = sweep.sweep(hz_set.matrix(), 0, 10, agg);
  EXPECT_EQ(stats.scenarios, 10u);
  EXPECT_EQ(stats.options, book.size());
  EXPECT_EQ(stats.unique_schedules, grids);
  EXPECT_EQ(stats.retabulated_columns, grids * 10);
  EXPECT_EQ(stats.shared_columns, grids * 10);
  EXPECT_DOUBLE_EQ(stats.shared_column_rate(), 0.5);

  const auto joint_set =
      workload::joint_stress_scenarios(interest, hazard, 10, 50.0);
  auto joint_stats = sweep.sweep(joint_set.matrix(), 0, 10, agg);
  EXPECT_EQ(joint_stats.retabulated_columns, 2 * grids * 10);
  EXPECT_EQ(joint_stats.shared_columns, 0u);
  EXPECT_DOUBLE_EQ(joint_stats.shared_column_rate(), 0.0);

  stats.merge(joint_stats);
  EXPECT_EQ(stats.scenarios, 20u);
  EXPECT_EQ(stats.retabulated_columns, grids * 10 + 2 * grids * 10);
}

// --- validation ------------------------------------------------------------------

TEST(SweepValidation, RejectsBadInputs) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(16);
  EXPECT_THROW(SweepPricer(interest, hazard, {}), Error);

  SweepPricer sweep(interest, hazard, book);
  const auto set = workload::mc_hazard_scenarios(hazard, 4);
  std::vector<ScenarioAggregate> agg(4);

  // Range outside the set.
  EXPECT_THROW(sweep.sweep(set.matrix(), 2, 6,
                           std::span<ScenarioAggregate>(agg)),
               Error);
  // Aggregate span of the wrong length.
  EXPECT_THROW(sweep.sweep(set.matrix(), 0, 3,
                           std::span<ScenarioAggregate>(agg)),
               Error);
  // Value matrix of the wrong shape for the declared kind.
  cds::ScenarioMatrix bad = set.matrix();
  bad.hazard_values = bad.hazard_values.subspan(0, hazard.size());
  EXPECT_THROW(sweep.sweep(bad, 0, 4, std::span<ScenarioAggregate>(agg)),
               Error);
  // Rate kind without rate values.
  cds::ScenarioMatrix no_rates = set.matrix();
  no_rates.kind = ScenarioKind::kRate;
  EXPECT_THROW(
      sweep.sweep(no_rates, 0, 4, std::span<ScenarioAggregate>(agg)),
      Error);
}

TEST(SweepRuntimeBasics, RejectedShardsThrowAndTheRuntimeStaysUsable) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(48);
  const auto set = workload::mc_hazard_scenarios(hazard, 23);
  runtime::SweepRuntimeConfig cfg;
  cfg.workers = 4;
  cfg.shard_size = 3;
  cfg.level = cds::simd::active_level();
  runtime::SweepRuntime rt(interest, hazard, book, cfg);

  // Hazard values of the wrong shape for the declared count: every shard
  // rejects its range.
  cds::ScenarioMatrix bad = set.matrix();
  bad.hazard_values = bad.hazard_values.subspan(0, hazard.size());
  EXPECT_THROW(rt.run(bad), Error);

  cfg.workers = 1;
  runtime::SweepRuntime single(interest, hazard, book, cfg);
  const auto want = single.run(set.matrix());
  const auto got = rt.run(set.matrix());
  ASSERT_EQ(got.aggregates.size(), want.aggregates.size());
  for (std::size_t s = 0; s < want.aggregates.size(); ++s) {
    EXPECT_EQ(got.aggregates[s].min_spread_bps,
              want.aggregates[s].min_spread_bps)
        << "scenario " << s;
    EXPECT_EQ(got.aggregates[s].max_spread_bps,
              want.aggregates[s].max_spread_bps)
        << "scenario " << s;
  }
  EXPECT_EQ(got.lanes, 4u);
}

TEST(SweepRuntimeBasics, EmptySetAndAccessors) {
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  const auto book = mixed_book(16);
  runtime::SweepRuntimeConfig cfg;
  cfg.workers = 2;
  runtime::SweepRuntime rt(interest, hazard, book, cfg);
  EXPECT_EQ(rt.lanes(), 2u);

  cds::ScenarioMatrix empty;
  empty.kind = ScenarioKind::kHazard;
  empty.count = 0;
  const auto run = rt.run(empty);
  EXPECT_TRUE(run.aggregates.empty());
  EXPECT_TRUE(run.shards.empty());
  EXPECT_EQ(run.stats.scenarios, 0u);
}

}  // namespace
}  // namespace cdsflow
