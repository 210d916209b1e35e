/// \file test_planner.cpp
/// Unit tests for the probe-calibrated deadline/energy planner: the one
/// probe protocol, affine cost-model fitting, the setup-heavy misprojection
/// fix, whole-batch ranking, and the full engine x workers x shard_size
/// runtime plans.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "engines/planner.hpp"
#include "runtime/shard.hpp"
#include "workload/scenario.hpp"

namespace cdsflow::engine {
namespace {

BackendCandidate make_candidate(std::string name, double watts,
                                double options_per_second,
                                double setup_seconds = 0.0) {
  BackendCandidate c;
  c.engine_name = std::move(name);
  c.watts = watts;
  c.options_per_second = options_per_second;
  c.setup_seconds = setup_seconds;
  return c;
}

/// plan_runtime()'s whole-batch plans: every candidate on one lane pricing
/// the batch as one shard -- the bare back-end projection, seconds_for(n)
/// at the candidate's watts -- in plan_runtime()'s ranked order.
std::vector<RuntimePlanEntry> whole_batch_plans(
    const std::vector<BackendCandidate>& candidates,
    const BatchRequirements& requirements) {
  PlannerConfig config;
  config.worker_counts = {1};
  auto plans = plan_runtime(candidates, requirements, config);
  std::erase_if(plans, [&](const RuntimePlanEntry& e) {
    return e.config.shard_size != requirements.n_options;
  });
  for (const auto& e : plans) {
    EXPECT_EQ(e.config.workers, 1u);
    EXPECT_EQ(e.n_shards, 1u);
    EXPECT_EQ(e.projected_seconds, e.candidate.seconds_for(requirements.n_options));
    EXPECT_EQ(e.projected_joules, e.candidate.joules_for(requirements.n_options));
  }
  return plans;
}

std::vector<BackendCandidate> synthetic_candidates() {
  return {
      make_candidate("cpu", 60.0, 10'000.0),        // slow, mid power
      make_candidate("multi-1", 35.8, 26'000.0),    // fast-ish, low power
      make_candidate("multi-5", 37.4, 100'000.0),   // fastest, low power
      make_candidate("cpu-x24", 175.0, 75'000.0),   // fast, high power
  };
}

TEST(Planner, ProjectionsAreArithmeticallyConsistent) {
  const auto c = make_candidate("x", 50.0, 1000.0);
  EXPECT_DOUBLE_EQ(c.seconds_for(5000), 5.0);
  EXPECT_DOUBLE_EQ(c.joules_for(5000), 250.0);
  // The affine model adds the fixed setup exactly once per batch.
  const auto s = make_candidate("y", 50.0, 1000.0, /*setup_seconds=*/2.0);
  EXPECT_DOUBLE_EQ(s.seconds_for(5000), 7.0);
  EXPECT_DOUBLE_EQ(s.joules_for(5000), 350.0);
  EXPECT_DOUBLE_EQ(s.per_option_seconds(), 1e-3);
}

// --- the probe protocol -----------------------------------------------------

TEST(Planner, ProbeProtocolDiscardsAWarmupAndKeepsTheBestOfTwo) {
  // Per size: a 100 s warm-up (discarded), then two timed runs of the true
  // cost 1 ms + 1 us/option, the slower one 10% over it. The faster run is
  // the second at 128 options and the first at 2048, so only a minimum
  // recovers the true cost at both.
  std::map<std::size_t, int> calls;
  std::vector<std::size_t> order;
  const auto truth = [](std::size_t n) { return 1e-3 + n * 1e-6; };
  const auto run = [&](std::size_t size) {
    order.push_back(size);
    const int call = calls[size]++;
    if (call == 0) return 100.0;
    const bool slow = (call == 1) == (size == 128);
    return truth(size) * (slow ? 1.1 : 1.0);
  };
  const auto fit = probe_backend("fake", 1.0, {2048, 128, 2048}, run);
  EXPECT_EQ(order, (std::vector<std::size_t>{128, 128, 128, 2048, 2048, 2048}));
  ASSERT_EQ(fit.probes.size(), 2u);
  EXPECT_EQ(fit.probes[0].n_options, 128u);
  EXPECT_EQ(fit.probes[0].seconds, truth(128));
  EXPECT_EQ(fit.probes[1].n_options, 2048u);
  EXPECT_EQ(fit.probes[1].seconds, truth(2048));
  EXPECT_NEAR(fit.setup_seconds, 1e-3, 1e-12);
  EXPECT_NEAR(fit.per_option_seconds(), 1e-6, 1e-15);
  EXPECT_EQ(fit.engine_name, "fake");

  // Simulated candidates report modelled time: one run per size.
  order.clear();
  const auto once = probe_backend(
      "sim", 1.0, {64, 16},
      [&](std::size_t size) {
        order.push_back(size);
        return truth(size);
      },
      /*deterministic=*/true);
  EXPECT_EQ(order, (std::vector<std::size_t>{16, 64}));
  EXPECT_EQ(once.probes[0].seconds, truth(16));
  EXPECT_EQ(once.probes[1].seconds, truth(64));

  // Sizes are checked before anything runs.
  order.clear();
  const auto count = [&](std::size_t size) {
    order.push_back(size);
    return 1.0;
  };
  EXPECT_THROW(probe_backend("x", 1.0, {}, count), Error);
  EXPECT_THROW(probe_backend("x", 1.0, {128, 7}, count), Error);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(checked_probe_sizes({48, 8, 48, 16}),
            (std::vector<std::size_t>{8, 16, 48}));
}

TEST(Planner, ProbeBookIsOneFixedSeedBook) {
  const auto a = probe_book(64);
  const auto b = probe_book(64);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(b.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].maturity_years, b[i].maturity_years);
    EXPECT_EQ(a[i].recovery_rate, b[i].recovery_rate);
  }
}

// --- affine cost-model fit --------------------------------------------------

TEST(Planner, FitRecoversAffineModelFromTwoProbes) {
  // True model: 1.5 s setup + 1 ms per option.
  const double setup = 1.5, per_option = 1e-3;
  const auto c = fit_backend_model(
      "cpu-batch", 60.0,
      {{128, setup + 128 * per_option}, {2048, setup + 2048 * per_option}});
  EXPECT_NEAR(c.setup_seconds, setup, 1e-9);
  EXPECT_NEAR(c.options_per_second, 1.0 / per_option, 1e-6);
  ASSERT_EQ(c.probes.size(), 2u);
  EXPECT_NEAR(c.seconds_for(1'000'000), setup + 1e6 * per_option, 1e-6);
}

TEST(Planner, FitWithOneProbeSizeDegradesToLinear) {
  const auto c = fit_backend_model("cpu", 60.0, {{128, 0.128}});
  EXPECT_DOUBLE_EQ(c.setup_seconds, 0.0);
  EXPECT_NEAR(c.options_per_second, 1000.0, 1e-9);
  // Repeated measurements of the same size are pooled, still linear.
  const auto r =
      fit_backend_model("cpu", 60.0, {{128, 0.128}, {128, 0.256}});
  EXPECT_DOUBLE_EQ(r.setup_seconds, 0.0);
  EXPECT_GT(r.options_per_second, 0.0);
}

TEST(Planner, FitFallsBackToLinearOnUnphysicalSlope) {
  // Bigger probe ran relatively faster (noise): slope would be negative.
  const auto c = fit_backend_model("cpu", 60.0, {{128, 0.2}, {2048, 0.1}});
  EXPECT_DOUBLE_EQ(c.setup_seconds, 0.0);
  EXPECT_GT(c.options_per_second, 0.0);
}

TEST(Planner, FitValidationErrors) {
  EXPECT_THROW(fit_backend_model("cpu", 60.0, {}), Error);
  EXPECT_THROW(fit_backend_model("cpu", 60.0, {{0, 0.1}}), Error);
  EXPECT_THROW(fit_backend_model("cpu", 60.0, {{128, 0.0}}), Error);
  EXPECT_THROW(fit_backend_model("cpu", 60.0, {{128, -1.0}}), Error);
}

TEST(Planner, FittedModelFixesSetupHeavyMisprojection) {
  // True costs: the batch kernel pays 2 s of grid setup then prices at
  // 100k options/s; the scalar kernel has no setup but only 1k options/s.
  const double batch_setup = 2.0, batch_per_option = 1e-5;
  const double scalar_per_option = 1e-3;
  const std::uint64_t batch_n = 1'000'000;
  const double true_batch_seconds =
      batch_setup + batch_n * batch_per_option;         // 12 s
  const double true_scalar_seconds = batch_n * scalar_per_option;  // 1000 s
  ASSERT_LT(true_batch_seconds, true_scalar_seconds);

  const auto probe_seconds = [&](std::size_t n, double setup, double per) {
    return setup + n * per;
  };

  // Old planner: one 128-option probe, linear extrapolation. The batch
  // kernel's setup dominates at probe size, so its probe throughput is
  // 128 / 2.00128 ~ 64 options/s and the projection at 1M options is
  // ~15,600 s -- the planner provably picks the scalar kernel, the slower
  // back-end.
  const double batch_probe_ops =
      128.0 / probe_seconds(128, batch_setup, batch_per_option);
  const double scalar_probe_ops =
      128.0 / probe_seconds(128, 0.0, scalar_per_option);
  const auto old_entries = whole_batch_plans(
      {make_candidate("cpu-batch", 60.0, batch_probe_ops),
       make_candidate("cpu", 60.0, scalar_probe_ops)},
      {.n_options = batch_n, .deadline_seconds = 1e9});
  EXPECT_EQ(old_entries.front().candidate.engine_name, "cpu");

  // Fitted planner: the same two back-ends probed at 128 AND 2048 options;
  // the affine fit separates setup from per-option cost and picks the
  // back-end that actually finishes fastest.
  const auto fitted_entries = whole_batch_plans(
      {fit_backend_model(
           "cpu-batch", 60.0,
           {{128, probe_seconds(128, batch_setup, batch_per_option)},
            {2048, probe_seconds(2048, batch_setup, batch_per_option)}}),
       fit_backend_model(
           "cpu", 60.0,
           {{128, probe_seconds(128, 0.0, scalar_per_option)},
            {2048, probe_seconds(2048, 0.0, scalar_per_option)}})},
      {.n_options = batch_n, .deadline_seconds = 1e9});
  EXPECT_EQ(fitted_entries.front().candidate.engine_name, "cpu-batch");
  EXPECT_NEAR(fitted_entries.front().projected_seconds, true_batch_seconds,
              1e-6);
  // The two planners disagree, and the fitted one matches ground truth.
  EXPECT_NE(old_entries.front().candidate.engine_name,
            fitted_entries.front().candidate.engine_name);
}

// --- whole-batch ranking (one lane, one shard) ------------------------------

TEST(Planner, DeadlineSplitsCandidates) {
  // 1M options in <= 15 s: only multi-5 (10 s) qualifies.
  const auto entries =
      whole_batch_plans(synthetic_candidates(), {.n_options = 1'000'000,
                                                 .deadline_seconds = 15.0});
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_TRUE(entries.front().meets_deadline);
  EXPECT_EQ(entries.front().candidate.engine_name, "multi-5");
  EXPECT_FALSE(entries.back().meets_deadline);
}

TEST(Planner, ProjectionExactlyAtDeadlineMeetsIt) {
  // setup 1 s + 1000 options at 1 ms each = 2.0 s, deadline exactly 2.0 s.
  const auto c = make_candidate("cpu", 60.0, 1000.0, /*setup_seconds=*/1.0);
  const auto entries =
      whole_batch_plans({c}, {.n_options = 1000, .deadline_seconds = 2.0});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries.front().projected_seconds, 2.0);
  EXPECT_TRUE(entries.front().meets_deadline);
  ASSERT_TRUE(best_runtime_plan(entries).has_value());
  // A hair past the deadline misses it.
  const auto late = whole_batch_plans(
      {c}, {.n_options = 1001, .deadline_seconds = 2.0});
  EXPECT_FALSE(late.front().meets_deadline);
}

TEST(Planner, RanksFeasibleByEnergy) {
  // Generous deadline: everything qualifies; the FPGA back-ends win on
  // energy (the paper's Table II conclusion).
  const auto entries =
      whole_batch_plans(synthetic_candidates(), {.n_options = 1'000'000,
                                                 .deadline_seconds = 1e6});
  ASSERT_TRUE(entries.front().meets_deadline);
  EXPECT_EQ(entries.front().candidate.engine_name, "multi-5");
  // Energy ordering is non-decreasing within the feasible prefix.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].meets_deadline) {
      EXPECT_GE(entries[i].projected_joules,
                entries[i - 1].projected_joules);
    }
  }
}

TEST(Planner, InfeasibleEntriesSortedByTime) {
  const auto entries = whole_batch_plans(synthetic_candidates(),
                                         {.n_options = 1'000'000'000,
                                          .deadline_seconds = 1.0});
  for (const auto& e : entries) EXPECT_FALSE(e.meets_deadline);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i].projected_seconds,
              entries[i - 1].projected_seconds);
  }
  EXPECT_FALSE(best_runtime_plan(entries).has_value());
}

TEST(Planner, BestPlanPicksFeasibleFront) {
  const auto entries =
      whole_batch_plans(synthetic_candidates(),
                        {.n_options = 100'000, .deadline_seconds = 100.0});
  const auto best = best_runtime_plan(entries);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->meets_deadline);
  EXPECT_EQ(best->candidate.engine_name, "multi-5");
}

TEST(Planner, ValidationErrors) {
  EXPECT_THROW(
      whole_batch_plans({}, {.n_options = 1, .deadline_seconds = 1.0}),
      Error);
  EXPECT_THROW(whole_batch_plans(synthetic_candidates(),
                                 {.n_options = 0, .deadline_seconds = 1.0}),
               Error);
  EXPECT_THROW(whole_batch_plans(synthetic_candidates(),
                                 {.n_options = 1, .deadline_seconds = 0.0}),
               Error);
  EXPECT_THROW(
      whole_batch_plans({make_candidate("broken", 10.0, 0.0)},
                        {.n_options = 1, .deadline_seconds = 1.0}),
      Error);
}

// --- runtime plans (engine x workers x shard_size) --------------------------

TEST(Planner, PlanRuntimeValidationErrors) {
  const auto candidates = synthetic_candidates();
  PlannerConfig config;
  EXPECT_THROW(
      plan_runtime(std::vector<BackendCandidate>{},
                   {.n_options = 1, .deadline_seconds = 1.0}, config),
      Error);
  EXPECT_THROW(plan_runtime(candidates,
                            {.n_options = 0, .deadline_seconds = 1.0},
                            config),
               Error);
  EXPECT_THROW(plan_runtime(candidates,
                            {.n_options = 1, .deadline_seconds = 0.0},
                            config),
               Error);
  EXPECT_THROW(
      plan_runtime({make_candidate("broken", 10.0, 0.0)},
                   {.n_options = 1, .deadline_seconds = 1.0}, config),
      Error);
  config.worker_counts = {0};
  EXPECT_THROW(plan_runtime(candidates,
                            {.n_options = 1, .deadline_seconds = 1.0},
                            config),
               Error);
}

TEST(Planner, PlanRuntimeIsDeterministicForFixedMeasurements) {
  const auto candidates = std::vector<BackendCandidate>{
      make_candidate("cpu", 60.0, 1000.0),
      make_candidate("cpu-batch", 60.0, 100'000.0, /*setup_seconds=*/0.5),
      make_candidate("multi-5", 37.4, 100'000.0),
  };
  PlannerConfig config;
  config.worker_counts = {1, 2, 4};
  const BatchRequirements req{.n_options = 100'000,
                              .deadline_seconds = 30.0};
  const auto a = plan_runtime(candidates, req, config);
  const auto b = plan_runtime(candidates, req, config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.engine, b[i].config.engine);
    EXPECT_EQ(a[i].config.workers, b[i].config.workers);
    EXPECT_EQ(a[i].config.shard_size, b[i].config.shard_size);
    EXPECT_EQ(a[i].n_shards, b[i].n_shards);
    EXPECT_EQ(a[i].projected_seconds, b[i].projected_seconds);
    EXPECT_EQ(a[i].projected_joules, b[i].projected_joules);
    EXPECT_EQ(a[i].meets_deadline, b[i].meets_deadline);
  }
}

TEST(Planner, PlanRuntimeScalesWorkersToMeetDeadline) {
  // One single-threaded candidate at 1000 options/s: 10k options take 10 s
  // on one lane -- only the 4-lane plans fit a 3 s deadline.
  PlannerConfig config;
  config.worker_counts = {1, 2, 4};
  const auto entries = plan_runtime(
      {make_candidate("cpu", config.cpu_power.watts(1), 1000.0)},
      {.n_options = 10'000, .deadline_seconds = 3.0}, config);
  const auto best = best_runtime_plan(entries);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->config.engine, "cpu");
  EXPECT_EQ(best->config.workers, 4u);
  EXPECT_LE(best->projected_seconds, 3.0);
  // Multi-worker CPU plans draw the multi-core power, not the probe watts.
  EXPECT_DOUBLE_EQ(best->watts, config.cpu_power.watts(4));
  // Already-parallel engines never get a worker sweep.
  for (const auto& e : entries) {
    if (e.config.engine != "cpu") {
      EXPECT_EQ(e.config.workers, 1u);
    }
  }
}

TEST(Planner, PlanRuntimeUsesSetupAwareShardSize) {
  // A setup-heavy candidate: 0.5 s per shard of setup. The load-balanced
  // auto shard size (16 shards for 4 workers) would pay 8 s of setup; the
  // planner must offer -- and prefer -- the one-shard-per-lane plan.
  PlannerConfig config;
  config.worker_counts = {4};
  const std::size_t n = 100'000;
  const auto entries = plan_runtime(
      {make_candidate("cpu-batch", 75.0, 100'000.0, /*setup_seconds=*/0.5)},
      {.n_options = n, .deadline_seconds = 1e9}, config);
  ASSERT_FALSE(entries.empty());
  const auto& best = entries.front();
  EXPECT_EQ(best.config.shard_size, (n + 3) / 4);
  EXPECT_EQ(best.n_shards, 4u);
  // setup 0.5 + 25k options at 10 us each = 0.75 s makespan on 4 lanes.
  EXPECT_NEAR(best.projected_seconds, 0.75, 1e-9);
  // The auto-shard plan for the same candidate exists and is worse.
  const std::size_t auto_size = runtime::auto_shard_size(n, 4);
  bool found_auto = false;
  for (const auto& e : entries) {
    if (e.config.shard_size == auto_size) {
      found_auto = true;
      EXPECT_GT(e.projected_seconds, best.projected_seconds);
    }
  }
  EXPECT_TRUE(found_auto);
}

TEST(Planner, BestRuntimePlanEmptyWhenDeadlineUnreachable) {
  PlannerConfig config;
  config.worker_counts = {1};
  const auto entries = plan_runtime(
      {make_candidate("cpu", 60.0, 10.0)},
      {.n_options = 1'000'000, .deadline_seconds = 1.0}, config);
  ASSERT_FALSE(entries.empty());
  EXPECT_FALSE(entries.front().meets_deadline);
  EXPECT_FALSE(best_runtime_plan(entries).has_value());
  EXPECT_FALSE(best_runtime_plan({}).has_value());
}

// --- probing real back-ends -------------------------------------------------

TEST(Planner, EnumerateMeasuresRealBackends) {
  const auto scenario = workload::smoke_scenario(4);
  PlannerConfig config;
  config.probe_sizes = {16, 48};
  config.fpga_engine_counts = {1, 2};
  // Keep the candidate list host-independent (cpu-vec appears only on SIMD
  // hosts; its enumeration is covered by tests/test_vector_kernel.cpp).
  config.probe_cpu_vec = false;
  const auto candidates =
      enumerate_backends(scenario.interest, scenario.hazard, config);
  // cpu, cpu-batch, multi-1, multi-2.
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[0].engine_name, "cpu");
  EXPECT_EQ(candidates[1].engine_name, "cpu-batch");
  for (const auto& c : candidates) {
    EXPECT_GT(c.options_per_second, 0.0) << c.engine_name;
    EXPECT_GE(c.setup_seconds, 0.0) << c.engine_name;
    EXPECT_GT(c.watts, 0.0);
    // Both probe sizes recorded, in ascending size order.
    ASSERT_EQ(c.probes.size(), 2u) << c.engine_name;
    EXPECT_EQ(c.probes[0].n_options, 16u);
    EXPECT_EQ(c.probes[1].n_options, 48u);
    EXPECT_GT(c.probes[0].seconds, 0.0);
    EXPECT_GT(c.probes[1].seconds, 0.0);
  }
  // The batch kernel shares the scalar kernel's power model.
  EXPECT_DOUBLE_EQ(candidates[1].watts, candidates[0].watts);
  // multi-2 should out-run multi-1 on the same probes.
  EXPECT_GT(candidates[3].options_per_second,
            candidates[2].options_per_second);
}

TEST(Planner, EnumerateCanSkipCpuBatch) {
  const auto scenario = workload::smoke_scenario(4);
  PlannerConfig config;
  config.probe_sizes = {16};
  config.fpga_engine_counts = {1};
  config.probe_cpu_batch = false;
  config.probe_cpu_vec = false;
  const auto candidates =
      enumerate_backends(scenario.interest, scenario.hazard, config);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].engine_name, "cpu");
  EXPECT_EQ(candidates[1].engine_name, "multi-1");
}

TEST(Planner, EnumerateRiskModeProbesRiskEnginesOnly) {
  const auto scenario = workload::smoke_scenario(4);
  PlannerConfig config;
  config.probe_sizes = {16};
  config.risk_mode = true;
  config.probe_cpu_vec = false;  // host-independent candidate list
  const auto candidates =
      enumerate_backends(scenario.interest, scenario.hazard, config);
  // Risk planning: cpu-risk + cpu-batch-risk, no simulated candidates
  // (they only price).
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].engine_name, "cpu-risk");
  EXPECT_EQ(candidates[1].engine_name, "cpu-batch-risk");
}

TEST(Planner, EnumerateSweepModeProbesSweepCandidatesOnly) {
  const auto scenario = workload::smoke_scenario(4);
  PlannerConfig config;
  config.probe_sizes = {16, 48};  // scenario counts, not option counts
  config.sweep_mode = true;
  config.sweep_probe_options = 32;
  const auto candidates =
      enumerate_backends(scenario.interest, scenario.hazard, config);
  // One single-lane candidate; plan_runtime() expands the lanes.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].engine_name, "cpu-sweep");
  for (const auto& c : candidates) {
    EXPECT_GT(c.options_per_second, 0.0) << c.engine_name;  // scenarios/s
    EXPECT_GE(c.setup_seconds, 0.0) << c.engine_name;
    ASSERT_EQ(c.probes.size(), 2u) << c.engine_name;
    EXPECT_EQ(c.probes[0].n_options, 16u);  // n axis = scenario count
    EXPECT_EQ(c.probes[1].n_options, 48u);
    EXPECT_GT(c.probes[0].seconds, 0.0);
  }
}

TEST(Planner, PlanRuntimeExpandsSweepCandidatesUnchanged) {
  // "cpu-sweep" parses as a CPU family name, so the standard plan_runtime
  // expansion sweeps workers x shard_size over the scenario axis with zero
  // sweep-specific planning logic.
  const std::vector<BackendCandidate> candidates = {
      make_candidate("cpu-sweep", 60.0, 50'000.0, 1e-3)};
  BatchRequirements req;
  req.n_options = 100'000;  // scenarios, in sweep mode
  req.deadline_seconds = 10.0;
  PlannerConfig config;
  config.sweep_mode = true;
  config.worker_counts = {1, 4};
  const auto entries = plan_runtime(candidates, req, config);
  ASSERT_FALSE(entries.empty());
  bool saw_multi_worker = false;
  for (const auto& e : entries) {
    EXPECT_EQ(e.config.engine, "cpu-sweep");
    saw_multi_worker = saw_multi_worker || e.config.workers == 4;
  }
  EXPECT_TRUE(saw_multi_worker);
  const auto best = best_runtime_plan(entries);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->meets_deadline);
}

TEST(Planner, EnumerateRejectsTinyProbe) {
  const auto scenario = workload::smoke_scenario(4);
  PlannerConfig config;
  config.probe_sizes = {2};
  EXPECT_THROW(
      enumerate_backends(scenario.interest, scenario.hazard, config), Error);
  config.probe_sizes = {};
  EXPECT_THROW(
      enumerate_backends(scenario.interest, scenario.hazard, config), Error);
}

}  // namespace
}  // namespace cdsflow::engine
