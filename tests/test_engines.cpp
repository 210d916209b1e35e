/// \file test_engines.cpp
/// Integration tests for the engine implementations: numerical agreement
/// with the golden model, ordering, timing structure (who includes restart
/// overheads, who streams), the registry, and the multi-engine partitioner.

#include <gtest/gtest.h>

#include <set>

#include "cds/pricer.hpp"
#include "common/stats.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/dataflow_engine.hpp"
#include "engines/interoption_engine.hpp"
#include "engines/multi_engine.hpp"
#include "engines/registry.hpp"
#include "engines/vectorised_engine.hpp"
#include "engines/xilinx_baseline.hpp"
#include "workload/scenario.hpp"

namespace cdsflow::engine {
namespace {

class EnginesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = workload::smoke_scenario(24, 321);
    golden_ = std::make_unique<cds::ReferencePricer>(scenario_.interest,
                                                     scenario_.hazard);
    expected_ = golden_->price(scenario_.options);
  }

  void expect_matches_golden(const PricingRun& run, double tol = 1e-9) {
    ASSERT_EQ(run.results.size(), expected_.size());
    for (std::size_t i = 0; i < expected_.size(); ++i) {
      EXPECT_EQ(run.results[i].id, expected_[i].id);
      EXPECT_LT(relative_difference(run.results[i].spread_bps,
                                    expected_[i].spread_bps),
                tol)
          << "option " << i;
    }
  }

  workload::Scenario scenario_;
  std::unique_ptr<cds::ReferencePricer> golden_;
  std::vector<cds::SpreadResult> expected_;
};

// --- CPU ----------------------------------------------------------------------

TEST_F(EnginesFixture, CpuSerialMatchesGoldenExactly) {
  CpuEngine engine(scenario_.interest, scenario_.hazard);
  const auto run = engine.price(scenario_.options);
  expect_matches_golden(run, 1e-15);  // same code path: bitwise
  EXPECT_EQ(run.kernel_cycles, 0u);
  EXPECT_EQ(run.transfer_seconds, 0.0);
  EXPECT_GT(run.options_per_second, 0.0);
}

TEST(Registry, CpuEngineNameRoundTripsThroughParse) {
  const auto s = workload::smoke_scenario(4);
  for (const CpuKernel kernel : {CpuKernel::kReference, CpuKernel::kBatch,
                                 CpuKernel::kVec, CpuKernel::kSweep}) {
    for (const bool risk : {false, true}) {
      const std::string name = cpu_engine_name(kernel, risk);
      CpuEngineConfig config;
      ASSERT_TRUE(parse_cpu_engine_name(name, config)) << name;
      EXPECT_EQ(config.kernel, kernel) << name;
      EXPECT_EQ(config.risk_mode, risk) << name;
      EXPECT_EQ(make_engine(name, s.interest, s.hazard)->name(), name);
    }
  }
  EXPECT_EQ(cpu_engine_name(CpuKernel::kReference, false), "cpu");
  EXPECT_EQ(cpu_engine_name(CpuKernel::kBatch, true), "cpu-batch-risk");
  EXPECT_EQ(cpu_engine_name(CpuKernel::kSweep, false), "cpu-sweep");
}

TEST(Registry, LaneSuffixIsNotACpuEngineName) {
  // Lane counts live in RuntimeConfig::workers / StreamConfig::lanes, never
  // in a name: the retired "-mt[N]" suffix fails loudly, with no alias.
  const auto s = workload::smoke_scenario(4);
  for (const char* name :
       {"cpu-mt", "cpu-mt2", "cpu-batch-mt4", "cpu-vec-risk-mt8"}) {
    SCOPED_TRACE(name);
    CpuEngineConfig config;
    EXPECT_FALSE(parse_cpu_engine_name(name, config));
    EXPECT_EQ(config.kernel, CpuKernel::kReference);  // left unmodified
    EXPECT_FALSE(config.risk_mode);
    try {
      make_engine(name, s.interest, s.hazard);
      FAIL() << "expected an unknown-name error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cpu[-batch|-vec|-sweep][-risk]"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("RuntimeConfig::workers"), std::string::npos)
          << what;
      EXPECT_NE(what.find("--workers"), std::string::npos) << what;
      EXPECT_NE(what.find("--lanes"), std::string::npos) << what;
    }
  }
}

TEST(Registry, SweepEngineConstructsAndPricesLikeVec) {
  // For a plain price() call the sweep engine IS the vector kernel: one
  // scenario on the base curves is exactly the batch tabulation. The
  // registry must construct it, report the sweep name, and reproduce
  // cpu-vec bit for bit.
  const auto s = workload::smoke_scenario(24);
  const auto sweep =
      engine::make_engine("cpu-sweep", s.interest, s.hazard);
  EXPECT_EQ(sweep->name(), "cpu-sweep");
  const auto vec = engine::make_engine("cpu-vec", s.interest, s.hazard);
  const auto a = sweep->price(s.options);
  const auto b = vec->price(s.options);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].spread_bps, b.results[i].spread_bps) << i;
  }
}

// --- Xilinx baseline -------------------------------------------------------------

TEST_F(EnginesFixture, BaselineMatchesGoldenExactly) {
  XilinxBaselineEngine engine(scenario_.interest, scenario_.hazard);
  const auto run = engine.price(scenario_.options);
  expect_matches_golden(run, 1e-15);  // in-order summation: bitwise
  EXPECT_EQ(run.invocations, scenario_.options.size());
  EXPECT_GT(run.kernel_cycles, 0u);
}

TEST_F(EnginesFixture, BaselineStageSpansDominatedByHazardAndInterp) {
  XilinxBaselineEngine engine(scenario_.interest, scenario_.hazard);
  const auto spans = engine.option_stage_spans(scenario_.options.front());
  sim::Cycle total = 0, heavy = 0;
  for (const auto& s : spans) {
    total += s.cycles;
    if (std::string(s.stage) == "default_probability" ||
        std::string(s.stage) == "payment_pv" ||
        std::string(s.stage) == "payoff_pv") {
      heavy += s.cycles;
    }
  }
  EXPECT_GT(static_cast<double>(heavy) / static_cast<double>(total), 0.8);
}

// --- dataflow engines ----------------------------------------------------------------

TEST_F(EnginesFixture, DataflowEngineMatchesGolden) {
  DataflowEngine engine(scenario_.interest, scenario_.hazard);
  const auto run = engine.price(scenario_.options);
  expect_matches_golden(run);
  EXPECT_EQ(run.invocations, scenario_.options.size());
}

TEST_F(EnginesFixture, InterOptionEngineMatchesGolden) {
  InterOptionEngine engine(scenario_.interest, scenario_.hazard);
  const auto run = engine.price(scenario_.options);
  expect_matches_golden(run);
  EXPECT_EQ(run.invocations, 1u);  // single free-running region
}

TEST_F(EnginesFixture, VectorisedEngineMatchesGolden) {
  VectorisedEngine engine(scenario_.interest, scenario_.hazard);
  const auto run = engine.price(scenario_.options);
  expect_matches_golden(run);
}

TEST_F(EnginesFixture, InterOptionFasterThanRestartPerOption) {
  DataflowEngine restart(scenario_.interest, scenario_.hazard);
  InterOptionEngine streaming(scenario_.interest, scenario_.hazard);
  const auto a = restart.price(scenario_.options);
  const auto b = streaming.price(scenario_.options);
  EXPECT_LT(b.kernel_cycles, a.kernel_cycles);
}

TEST_F(EnginesFixture, TransferCanBeExcluded) {
  FpgaEngineConfig cfg;
  cfg.include_transfer = false;
  InterOptionEngine engine(scenario_.interest, scenario_.hazard, cfg);
  const auto run = engine.price(scenario_.options);
  EXPECT_EQ(run.transfer_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.total_seconds, run.kernel_seconds);
}

TEST_F(EnginesFixture, LastRunStatsExposeBottleneck) {
  // The interp-dominates-hazard relation needs the paper's 1024-point
  // curves: the interp scan always walks the whole curve while the hazard
  // scan stops at t (smoke curves are too short to separate them).
  const auto scenario = workload::paper_scenario(16);
  InterOptionEngine engine(scenario.interest, scenario.hazard);
  engine.price(scenario.options);
  const auto& stats = engine.last_run();
  EXPECT_GT(stats.total_time_points, 0u);
  EXPECT_GT(stats.interp_busy, stats.hazard_busy);
}

TEST_F(EnginesFixture, VectorisedLaneStatsAreBalanced) {
  VectorisedEngine engine(scenario_.interest, scenario_.hazard);
  engine.price(scenario_.options);
  const auto& stats = engine.last_run();
  ASSERT_EQ(stats.interp_lane_busy.size(), 6u);
  RunningStats busy;
  for (const auto b : stats.interp_lane_busy) {
    busy.add(static_cast<double>(b));
  }
  // Round-robin balance: no lane deviates more than 25% from the mean.
  EXPECT_LT((busy.max() - busy.min()) / busy.mean(), 0.25);
}

// --- multi engine ------------------------------------------------------------------

TEST_F(EnginesFixture, MultiEngineMatchesGoldenAndCoversAllOptions) {
  MultiEngineConfig cfg;
  cfg.n_engines = 3;
  MultiEngine engine(scenario_.interest, scenario_.hazard, cfg);
  const auto run = engine.price(scenario_.options);
  expect_matches_golden(run);
  std::set<std::int32_t> ids;
  for (const auto& r : run.results) ids.insert(r.id);
  EXPECT_EQ(ids.size(), scenario_.options.size());  // exactly once each
}

TEST_F(EnginesFixture, MultiEngineScalesKernelTime) {
  MultiEngineConfig one, four;
  one.n_engines = 1;
  four.n_engines = 4;
  MultiEngine e1(scenario_.interest, scenario_.hazard, one);
  MultiEngine e4(scenario_.interest, scenario_.hazard, four);
  const auto r1 = e1.price(scenario_.options);
  const auto r4 = e4.price(scenario_.options);
  const double speedup = static_cast<double>(r1.kernel_cycles) /
                         static_cast<double>(r4.kernel_cycles);
  // 4 engines on a 24-option book: well above 2x even with chunk imbalance
  // and per-chunk pipeline fills (larger books approach 4x; see the
  // Table II integration test).
  EXPECT_GT(speedup, 2.2);
}

TEST_F(EnginesFixture, MultiEngineEnforcesDeviceFit) {
  MultiEngineConfig cfg;
  cfg.n_engines = 6;  // does not fit on the U280
  cfg.device = fpga::alveo_u280();
  EXPECT_THROW(
      MultiEngine(scenario_.interest, scenario_.hazard, cfg), Error);
  cfg.n_engines = 5;
  EXPECT_NO_THROW(MultiEngine(scenario_.interest, scenario_.hazard, cfg));
}

TEST_F(EnginesFixture, MultiEngineRejectsMoreEnginesThanOptions) {
  MultiEngineConfig cfg;
  cfg.n_engines = 30;
  MultiEngine engine(scenario_.interest, scenario_.hazard, cfg);
  std::vector<cds::CdsOption> tiny(scenario_.options.begin(),
                                   scenario_.options.begin() + 3);
  EXPECT_THROW(engine.price(tiny), Error);
}

// --- registry -------------------------------------------------------------------------

TEST_F(EnginesFixture, RegistryBuildsEveryFixedName) {
  for (const auto& name : engine_names()) {
    auto engine = make_engine(name, scenario_.interest, scenario_.hazard);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_FALSE(engine->description().empty());
  }
}

TEST_F(EnginesFixture, RegistryParsesParameterisedNames) {
  auto multi = make_engine("multi-3", scenario_.interest, scenario_.hazard);
  EXPECT_EQ(multi->name(), "multi-3");
  const auto run = multi->price(scenario_.options);
  EXPECT_EQ(run.results.size(), scenario_.options.size());
}

TEST_F(EnginesFixture, RegistryParsesClusterNames) {
  auto cluster =
      make_engine("cluster-2x3", scenario_.interest, scenario_.hazard);
  EXPECT_EQ(cluster->name(), "cluster-2x3");
  const auto run = cluster->price(scenario_.options);
  expect_matches_golden(run);
}

TEST_F(EnginesFixture, RegistryRejectsUnknownNames) {
  EXPECT_THROW(make_engine("gpu", scenario_.interest, scenario_.hazard),
               Error);
  EXPECT_THROW(make_engine("multi-0", scenario_.interest, scenario_.hazard),
               Error);
  EXPECT_THROW(make_engine("", scenario_.interest, scenario_.hazard), Error);
}

// --- misc -----------------------------------------------------------------------------

TEST_F(EnginesFixture, EmptyPortfolioRejectedEverywhere) {
  const std::vector<cds::CdsOption> empty;
  CpuEngine cpu(scenario_.interest, scenario_.hazard);
  EXPECT_THROW(cpu.price(empty), Error);
  InterOptionEngine stream(scenario_.interest, scenario_.hazard);
  EXPECT_THROW(stream.price(empty), Error);
  XilinxBaselineEngine baseline(scenario_.interest, scenario_.hazard);
  EXPECT_THROW(baseline.price(empty), Error);
}

TEST(BatchTraffic, ScalesWithInputs) {
  const auto t = batch_traffic(1024, 512);
  EXPECT_EQ(t.curve_bytes, 1024u * 2 * 2 * 8);
  EXPECT_EQ(t.option_bytes, 512u * 32);
  EXPECT_EQ(t.result_bytes, 512u * 16);
  EXPECT_EQ(t.total(), t.curve_bytes + t.option_bytes + t.result_bytes);
}

TEST_F(EnginesFixture, SingleOptionPortfolioWorks) {
  const std::vector<cds::CdsOption> one(scenario_.options.begin(),
                                        scenario_.options.begin() + 1);
  for (const auto& name :
       {"dataflow", "dataflow-interoption", "vectorised"}) {
    auto engine = make_engine(name, scenario_.interest, scenario_.hazard);
    const auto run = engine->price(one);
    ASSERT_EQ(run.results.size(), 1u) << name;
    EXPECT_LT(relative_difference(run.results[0].spread_bps,
                                  expected_[0].spread_bps),
              1e-9)
        << name;
  }
}

}  // namespace
}  // namespace cdsflow::engine
