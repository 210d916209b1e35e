/// \file test_stream_pricer.cpp
/// The persistent-grid streaming pricer: micro-batched pricing parity with
/// the batch kernel, cross-batch grid caching, and -- the load-bearing
/// guarantee -- incremental hazard-quote updates that are bit-consistent
/// with a full grid rebuild on the updated curve, under randomized updates
/// at every SIMD level with payment ladders that grow between updates, and
/// after a batch that failed part-way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/stream_pricer.hpp"
#include "cds/vector_kernel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"

namespace cdsflow {
namespace {

cds::TermStructure test_interest() {
  return workload::paper_interest_curve(64, 11);
}
cds::TermStructure test_hazard() { return workload::paper_hazard_curve(64, 23); }

std::vector<cds::CdsOption> tenor_book(std::size_t count, std::uint64_t seed) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.seed = seed;
  return workload::make_portfolio(spec);
}

std::vector<cds::CdsOption> continuous_book(std::size_t count,
                                            std::uint64_t seed) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.seed = seed;
  return workload::make_portfolio(spec);
}

/// Bit-identical: the streaming grids must reproduce the batch kernel's
/// spreads exactly (same arithmetic, same association order).
void expect_identical(const std::vector<cds::SpreadResult>& got,
                      const std::vector<cds::SpreadResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(got[i].spread_bps, want[i].spread_bps) << "at " << i;
  }
}

std::vector<cds::SpreadResult> stream_price(cds::StreamPricer& pricer,
                                            const std::vector<cds::CdsOption>&
                                                options,
                                            std::size_t chunk) {
  std::vector<cds::SpreadResult> out(options.size());
  for (std::size_t begin = 0; begin < options.size(); begin += chunk) {
    const std::size_t end = std::min(options.size(), begin + chunk);
    pricer.price(std::span<const cds::CdsOption>(options).subspan(
                     begin, end - begin),
                 std::span<cds::SpreadResult>(out).subspan(begin, end - begin));
  }
  return out;
}

TEST(StreamPricer, MicroBatchesMatchBatchKernel) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto book = continuous_book(53, 5);
  const cds::BatchPricer batch(interest, hazard);
  const auto want = batch.price(book);

  cds::StreamPricer stream(interest, hazard);
  expect_identical(stream_price(stream, book, 7), want);
  EXPECT_EQ(stream.stats().options_priced, book.size());
}

TEST(StreamPricer, GridCachePersistsAcrossBatches) {
  cds::StreamPricer stream(test_interest(), test_hazard());
  const auto book = tenor_book(64, 3);
  stream_price(stream, book, 16);
  EXPECT_LE(stream.stats().cached_grids, 5u);
  const std::size_t grids_after_first = stream.stats().cached_grids;
  const std::size_t points_after_first = stream.stats().grid_points;

  // A second pass over the same tenors adds no grids and no points.
  stream_price(stream, tenor_book(64, 4), 16);
  EXPECT_EQ(stream.stats().cached_grids, grids_after_first);
  EXPECT_EQ(stream.stats().grid_points, points_after_first);
}

TEST(StreamPricer, IncrementalUpdateMatchesFullRebuildRandomized) {
  using Level = cds::simd::Level;
  std::vector<Level> levels;
  for (const Level requested : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    const Level level = cds::simd::resolve_level(requested);
    if (std::find(levels.begin(), levels.end(), level) == levels.end()) {
      levels.push_back(level);
    }
  }
  for (const Level level : levels) {
    SCOPED_TRACE(cds::simd::to_string(level));
    const auto interest = test_interest();
    auto hazard = test_hazard();
    // Mixed book: repeated tenors plus continuous maturities, so updates
    // hit both shared and singleton grids.
    auto book = tenor_book(40, 7);
    const auto extra = continuous_book(24, 9);
    book.insert(book.end(), extra.begin(), extra.end());

    cds::StreamPricerConfig config;
    config.kernel_level = level;
    cds::StreamPricer stream(interest, hazard, config);
    stream_price(stream, book, 13);

    Rng rng(321);
    for (int round = 0; round < 25; ++round) {
      const auto knot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hazard.size()) - 1));
      const double rate = hazard.value(knot) * rng.uniform(0.5, 1.5);
      const std::size_t retabulated = stream.update_hazard_quote(knot, rate);
      EXPECT_LE(retabulated, stream.stats().cached_grids);

      // Full rebuild on the updated curve: a fresh BatchPricer must agree
      // bit-for-bit with the incrementally-maintained grids.
      std::vector<double> values = hazard.values();
      values[knot] = rate;
      hazard = cds::TermStructure(hazard.times(), std::move(values));
      const cds::BatchPricer rebuilt(interest, hazard, level);
      expect_identical(stream_price(stream, book, 17), rebuilt.price(book));

      // Then a batch past every cached maturity, quarterly and monthly:
      // the cached ladders grow (and the monthly one starts) after the
      // updates moved their survival values.
      workload::PortfolioSpec longer;
      longer.count = 8;
      longer.maturity_min_years = 10.0 + 0.75 * round;
      longer.maturity_max_years = longer.maturity_min_years + 0.75;
      longer.frequencies = {4.0, 12.0};
      longer.frequency_weights = {1.0, 1.0};
      longer.seed = 500 + static_cast<std::uint64_t>(round);
      const auto batch = workload::make_portfolio(longer);
      expect_identical(stream_price(stream, batch, 3), rebuilt.price(batch));
      book.insert(book.end(), batch.begin(), batch.end());
    }
    // The whole point: randomized updates must not have re-tabulated every
    // grid every time.
    EXPECT_LT(stream.stats().grids_retabulated,
              stream.stats().full_rebuild_grids);
  }
}

TEST(StreamPricer, UpdateBeyondBookMaturityRetabulatesNothing) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();  // 64 knots spanning 30y
  cds::StreamPricer stream(interest, hazard);
  const auto book = tenor_book(32, 11);  // maturities <= 10y
  const auto before = stream_price(stream, book, 8);

  // The last knot's rate applies on (tau_{n-2}, tau_n-1] ~ (29.5y, 30y],
  // far beyond every 10y maturity: nothing to re-tabulate, spreads frozen.
  const std::size_t last = hazard.size() - 1;
  EXPECT_EQ(stream.update_hazard_quote(last, hazard.value(last) * 2.0), 0u);
  expect_identical(stream_price(stream, book, 8), before);
}

TEST(StreamPricer, UpdateOfFirstKnotRetabulatesEverything) {
  cds::StreamPricer stream(test_interest(), test_hazard());
  const auto book = tenor_book(32, 13);
  stream_price(stream, book, 8);
  const std::size_t grids = stream.stats().cached_grids;
  // Knot 0 moves the (0, tau_0] segment under every schedule point.
  EXPECT_EQ(stream.update_hazard_quote(0, 0.05), grids);
}

TEST(StreamPricer, UpdateValidation) {
  const auto hazard = test_hazard();
  cds::StreamPricer stream(test_interest(), hazard);
  EXPECT_THROW(stream.update_hazard_quote(hazard.size(), 0.02), Error);
  EXPECT_THROW(stream.update_hazard_quote(0, 0.0), Error);
  EXPECT_THROW(stream.update_hazard_quote(0, -0.01), Error);
  EXPECT_THROW(
      stream.update_hazard_quote(0, std::numeric_limits<double>::quiet_NaN()),
      Error);
}

TEST(StreamPricer, InvalidOptionLeavesTheGridCacheUsable) {
  // The cache persists across calls, so a batch that throws part-way
  // through dedup must not leave it inconsistent: later batches, including
  // the grids the failed batch registered, still match the batch kernel.
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  cds::StreamPricer stream(interest, hazard);
  const auto book = continuous_book(40, 77);
  std::vector<cds::CdsOption> bad(book.begin(), book.begin() + 20);
  bad.push_back(cds::CdsOption{999, -1.0, 4.0, 0.4});
  std::vector<cds::SpreadResult> out(bad.size());
  EXPECT_THROW(stream.price(bad, out), Error);

  const cds::BatchPricer batch(interest, hazard);
  expect_identical(stream_price(stream, book, 7), batch.price(book));
  EXPECT_EQ(stream.stats().cached_grids, book.size());
}

TEST(StreamPricer, QuoteUpdateSkipsGridsAFailedBatchRegistered) {
  // A batch that throws in dedup registers grids it never tabulates. A
  // hazard-quote update before the next batch must leave them alone (they
  // have no columns yet); the next batch then tabulates them on the updated
  // curve, at the host's level through the cache's search tables.
  const auto interest = test_interest();
  auto hazard_values = test_hazard().values();
  const auto hazard_times = test_hazard().times();
  cds::StreamPricerConfig config;
  config.kernel_level = cds::simd::detect_level();
  cds::StreamPricer stream(interest,
                           cds::TermStructure(hazard_times, hazard_values),
                           config);
  const auto book = continuous_book(40, 78);
  std::vector<cds::SpreadResult> warm(10);
  stream.price(std::span<const cds::CdsOption>(book).first(10), warm);
  const std::size_t tabulated = stream.stats().cached_grids;
  std::vector<cds::CdsOption> bad(book.begin() + 10, book.begin() + 30);
  bad.push_back(cds::CdsOption{999, -1.0, 4.0, 0.4});
  std::vector<cds::SpreadResult> out(bad.size());
  EXPECT_THROW(stream.price(bad, out), Error);

  EXPECT_EQ(stream.update_hazard_quote(0, 0.03), tabulated);
  hazard_values[0] = 0.03;
  const cds::BatchPricer fresh(
      interest, cds::TermStructure(hazard_times, hazard_values),
      config.kernel_level);
  expect_identical(stream_price(stream, book, 7), fresh.price(book));
}

TEST(StreamPricer, RiskModeMatchesBatchRiskKernelAcrossUpdates) {
  const auto interest = test_interest();
  auto hazard = test_hazard();
  cds::StreamPricerConfig config;
  config.risk_mode = true;
  config.risk_bump = 1e-4;
  config.ladder_edges = {0.0, 3.0, 7.0, 30.0};
  cds::StreamPricer stream(interest, hazard, config);
  ASSERT_EQ(stream.ladder_buckets(), 3u);

  const auto book = tenor_book(24, 17);
  cds::BatchRiskConfig risk_config;
  risk_config.bump = config.risk_bump;
  risk_config.ladder_edges = config.ladder_edges;

  const auto check = [&] {
    std::vector<cds::SpreadResult> results(book.size());
    std::vector<cds::Sensitivities> sens(book.size());
    std::vector<double> ladder(book.size() * 3);
    stream.price_with_sensitivities(book, results, sens, ladder);

    const cds::BatchPricer reference(interest, hazard);
    const auto want = reference.price_with_sensitivities(book, risk_config);
    for (std::size_t i = 0; i < book.size(); ++i) {
      EXPECT_EQ(sens[i].spread_bps, want.sensitivities[i].spread_bps);
      EXPECT_EQ(results[i].spread_bps, want.sensitivities[i].spread_bps);
      EXPECT_EQ(sens[i].cs01, want.sensitivities[i].cs01);
      EXPECT_EQ(sens[i].ir01, want.sensitivities[i].ir01);
      EXPECT_EQ(sens[i].rec01, want.sensitivities[i].rec01);
      EXPECT_EQ(sens[i].jtd, want.sensitivities[i].jtd);
    }
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      EXPECT_EQ(ladder[i], want.cs01_ladder[i]);
    }
  };

  check();
  // A quote update dirties the risk kernel; the rebuilt one must agree with
  // a fresh BatchPricer on the updated curve.
  const double moved = hazard.value(3) * 1.25;
  stream.update_hazard_quote(3, moved);
  std::vector<double> values = hazard.values();
  values[3] = moved;
  hazard = cds::TermStructure(hazard.times(), std::move(values));
  check();
}

TEST(StreamPricer, RiskModeRequiredForSensitivities) {
  cds::StreamPricer stream(test_interest(), test_hazard());
  const auto book = tenor_book(4, 19);
  std::vector<cds::SpreadResult> results(book.size());
  std::vector<cds::Sensitivities> sens(book.size());
  EXPECT_THROW(stream.price_with_sensitivities(book, results, sens, {}),
               Error);
}

}  // namespace
}  // namespace cdsflow
