/// \file test_cds_risk.cpp
/// Unit tests for the sensitivity module: bump helpers, sign and magnitude
/// of the greeks, ladder additivity.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "cds/legs.hpp"
#include "cds/risk.hpp"
#include "common/error.hpp"
#include "workload/curves.hpp"

namespace cdsflow::cds {
namespace {

struct RiskFixture : ::testing::Test {
  TermStructure interest = workload::paper_interest_curve(256);
  TermStructure hazard = workload::paper_hazard_curve(256);
  CdsOption option{.id = 0,
                   .maturity_years = 5.0,
                   .payment_frequency = 4.0,
                   .recovery_rate = 0.4};
};

TEST_F(RiskFixture, ParallelBumpShiftsEveryKnot) {
  const auto bumped = parallel_bump(hazard, 0.001);
  for (std::size_t i = 0; i < hazard.size(); ++i) {
    EXPECT_DOUBLE_EQ(bumped.value(i), hazard.value(i) + 0.001);
    EXPECT_DOUBLE_EQ(bumped.time(i), hazard.time(i));
  }
}

TEST_F(RiskFixture, BucketBumpOnlyTouchesRange) {
  const auto bumped = bucket_bump(hazard, 2.0, 5.0, 0.01);
  for (std::size_t i = 0; i < hazard.size(); ++i) {
    const bool in_bucket = hazard.time(i) >= 2.0 && hazard.time(i) < 5.0;
    EXPECT_DOUBLE_EQ(bumped.value(i),
                     hazard.value(i) + (in_bucket ? 0.01 : 0.0));
  }
  EXPECT_THROW(bucket_bump(hazard, 5.0, 2.0, 0.01), Error);
}

TEST_F(RiskFixture, Cs01SignAndMagnitude) {
  const auto s = compute_sensitivities(interest, hazard, option);
  // d(spread)/d(hazard) ~ (1-R): a 1 bp hazard bump moves the spread by
  // roughly 0.6 bp at R=0.4.
  EXPECT_GT(s.cs01, 0.3);
  EXPECT_LT(s.cs01, 1.0);
}

TEST_F(RiskFixture, Rec01IsNegative) {
  const auto s = compute_sensitivities(interest, hazard, option);
  // More recovery => cheaper protection => lower spread.
  EXPECT_LT(s.rec01, 0.0);
}

TEST_F(RiskFixture, JtdIsTheProtectionPayout) {
  // The engine quotes fair spreads (MTM zero), so jump-to-default is
  // exactly (1 - R) per unit notional.
  const auto s = compute_sensitivities(interest, hazard, option);
  EXPECT_DOUBLE_EQ(s.jtd, 1.0 - option.recovery_rate);
  CdsOption zero_recovery = option;
  zero_recovery.recovery_rate = 0.0;
  EXPECT_DOUBLE_EQ(
      compute_sensitivities(interest, hazard, zero_recovery).jtd, 1.0);
}

TEST_F(RiskFixture, Ir01IsSecondOrderSmall) {
  const auto s = compute_sensitivities(interest, hazard, option);
  // Discounting hits both legs almost equally; the spread's rate
  // sensitivity is far below its hazard sensitivity.
  EXPECT_LT(std::fabs(s.ir01), 0.1 * s.cs01);
}

TEST_F(RiskFixture, SpreadFieldMatchesPricer) {
  const auto s = compute_sensitivities(interest, hazard, option);
  EXPECT_NEAR(s.spread_bps,
              price_breakdown(interest, hazard, option).spread_bps, 1e-9);
}

TEST_F(RiskFixture, LadderSumsToParallelCs01) {
  const std::vector<double> edges = {0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0};
  const auto ladder = cs01_ladder(interest, hazard, option, edges);
  ASSERT_EQ(ladder.size(), edges.size() - 1);
  const double ladder_sum =
      std::accumulate(ladder.begin(), ladder.end(), 0.0);
  const auto s = compute_sensitivities(interest, hazard, option);
  // Bucket bumps tile the parallel bump; finite differences are linear to
  // first order, so the ladder sums to the parallel CS01.
  EXPECT_NEAR(ladder_sum, s.cs01, 0.02 * s.cs01);
}

TEST_F(RiskFixture, NoSensitivityBeyondMaturity) {
  // The hazard is piecewise-constant with each rate owned by the knot at
  // the segment's right end, so the first knot *after* maturity still
  // covers part of [0, maturity]. Knots whose whole segment lies beyond
  // maturity (here: beyond 5y + one 30/256y knot spacing) contribute
  // exactly nothing.
  const std::vector<double> edges = {0.0, 5.2, 30.0};
  const auto ladder = cs01_ladder(interest, hazard, option, edges);
  EXPECT_GT(ladder[0], 0.0);
  EXPECT_NEAR(ladder[1], 0.0, 1e-9);
}

TEST_F(RiskFixture, LongerMaturityMoreFrontBucketRisk) {
  const std::vector<double> edges = {0.0, 2.0};
  CdsOption long_opt = option;
  long_opt.maturity_years = 10.0;
  const auto short_ladder = cs01_ladder(interest, hazard, option, edges);
  const auto long_ladder = cs01_ladder(interest, hazard, long_opt, edges);
  // Both contracts see the first two years of hazard; sensitivities are
  // the same order of magnitude and both positive.
  EXPECT_GT(short_ladder[0], 0.0);
  EXPECT_GT(long_ladder[0], 0.0);
}

TEST_F(RiskFixture, ValidationErrors) {
  EXPECT_THROW(compute_sensitivities(interest, hazard, option, 0.0), Error);
  EXPECT_THROW(cs01_ladder(interest, hazard, option, {1.0}), Error);
  EXPECT_THROW(cs01_ladder(interest, hazard, option, {2.0, 1.0}), Error);
  // Only the last edge may be infinite: a -inf first edge is increasing, so
  // the ordering check alone would pass it.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_ladder_edges({-inf, 1.0, 2.0}), Error);
  EXPECT_THROW(cs01_ladder(interest, hazard, option, {-inf, 1.0, 2.0}),
               Error);
}

TEST_F(RiskFixture, BumpHelpersRejectNonFiniteInputs) {
  // A NaN/inf bump would silently poison every downstream spread; the
  // helpers validate instead of producing garbage curves.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(parallel_bump(hazard, nan), Error);
  EXPECT_THROW(parallel_bump(hazard, inf), Error);
  EXPECT_THROW(bucket_bump(hazard, 0.0, 5.0, nan), Error);
  EXPECT_THROW(bucket_bump(hazard, nan, 5.0, 0.01), Error);
  EXPECT_THROW(bucket_bump(hazard, 0.0, nan, 0.01), Error);
  EXPECT_THROW(compute_sensitivities(interest, hazard, option, inf), Error);
  EXPECT_THROW(cs01_ladder(interest, hazard, option, {0.0, 5.0}, nan),
               Error);
  // +inf as the *upper* edge is the documented "to the end of the curve"
  // convention and stays legal.
  const auto open_ended = bucket_bump(hazard, 5.0, inf, 0.01);
  EXPECT_DOUBLE_EQ(open_ended.value(hazard.size() - 1),
                   hazard.value(hazard.size() - 1) + 0.01);
}

TEST_F(RiskFixture, LadderBucketsBeyondLastKnotAreExactlyZero) {
  // Buckets that start past the hazard curve's final knot bump nothing --
  // bucket_bump returns the identical curve, so up == dn and the entry is
  // exactly 0, not merely small.
  const double beyond = hazard.max_time() + 1.0;
  const auto ladder = cs01_ladder(interest, hazard, option,
                                  {beyond, beyond + 5.0, beyond + 10.0});
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0], 0.0);
  EXPECT_EQ(ladder[1], 0.0);
}

TEST_F(RiskFixture, SingleBucketLadderMatchesParallelCs01) {
  // One bucket spanning every knot *is* the parallel bump.
  const auto ladder = cs01_ladder(interest, hazard, option,
                                  {0.0, hazard.max_time() + 1.0});
  ASSERT_EQ(ladder.size(), 1u);
  const auto s = compute_sensitivities(interest, hazard, option);
  EXPECT_NEAR(ladder[0], s.cs01, 1e-12 * std::fabs(s.cs01));
}

TEST_F(RiskFixture, EqualEdgesRejected) {
  EXPECT_THROW(cs01_ladder(interest, hazard, option, {1.0, 1.0}), Error);
  EXPECT_THROW(cs01_ladder(interest, hazard, option, {0.0, 1.0, 1.0, 2.0}),
               Error);
}

TEST_F(RiskFixture, CentralDifferenceIsStableInBumpSize) {
  const auto coarse =
      compute_sensitivities(interest, hazard, option, 1e-3);
  const auto fine = compute_sensitivities(interest, hazard, option, 1e-5);
  EXPECT_NEAR(coarse.cs01, fine.cs01, 0.01 * std::fabs(fine.cs01));
}

}  // namespace
}  // namespace cdsflow::cds
