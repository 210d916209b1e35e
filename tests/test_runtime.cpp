/// \file test_runtime.cpp
/// The sharded portfolio runtime: shard planning, the lane schedule behind
/// every modelled figure and projection, shard-boundary correctness
/// (bit-identical to a single-engine run for every CPU kernel and risk
/// mode, including empty and one-option books), determinism across worker
/// counts, the modelled multi-lane scaling, failing shards on a multi-lane
/// runtime, the shard runner's claim loop, and when the lanes' threads
/// start.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "engines/registry.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "runtime/shard.hpp"
#include "runtime/shard_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace cdsflow {
namespace {

TEST(ShardPlan, ExactDivision) {
  const auto plan = runtime::plan_shards(12, 4);
  ASSERT_EQ(plan.size(), 3u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].index, i);
    EXPECT_EQ(plan[i].begin, i * 4);
    EXPECT_EQ(plan[i].end, (i + 1) * 4);
    EXPECT_EQ(plan[i].size(), 4u);
  }
}

TEST(ShardPlan, RemainderGoesToLastShard) {
  const auto plan = runtime::plan_shards(10, 4);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[2].begin, 8u);
  EXPECT_EQ(plan[2].end, 10u);
  EXPECT_EQ(plan[2].size(), 2u);
}

TEST(ShardPlan, EmptyAndDegenerate) {
  EXPECT_TRUE(runtime::plan_shards(0, 4).empty());
  const auto one = runtime::plan_shards(1, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].size(), 1u);
  EXPECT_THROW(runtime::plan_shards(5, 0), Error);
}

TEST(ShardPlan, AutoShardSizeOversubscribes) {
  // ~4 shards per worker, never zero.
  EXPECT_EQ(runtime::auto_shard_size(1600, 4), 100u);
  EXPECT_EQ(runtime::auto_shard_size(3, 8), 1u);
  EXPECT_EQ(runtime::auto_shard_size(0, 4), 1u);
  EXPECT_THROW(runtime::auto_shard_size(100, 0), Error);
}

TEST(ShardPlan, SetupAwareShardSizeAmortisesSetup) {
  // No setup cost: identical to the load-balanced default.
  EXPECT_EQ(runtime::setup_aware_shard_size(1600, 4, 0.0, 1e-3),
            runtime::auto_shard_size(1600, 4));
  // 0.5 s setup at 10 us/option and 10% tolerated overhead needs 500k
  // options per shard -- more than one lane's worth, so cap at n/workers.
  EXPECT_EQ(runtime::setup_aware_shard_size(100'000, 4, 0.5, 1e-5, 0.1),
            25'000u);
  // Mild setup grows the shard just enough: 1 ms setup at 1 ms/option and
  // 10% overhead -> 10 options per shard, above the balanced 7 (100/16).
  EXPECT_EQ(runtime::setup_aware_shard_size(100, 4, 1e-3, 1e-3, 0.1), 10u);
  // Already-amortised setup keeps the balanced size.
  EXPECT_EQ(runtime::setup_aware_shard_size(1600, 4, 1e-6, 1e-3, 0.1),
            runtime::auto_shard_size(1600, 4));
  EXPECT_THROW(runtime::setup_aware_shard_size(100, 0, 0.1, 1e-3), Error);
  EXPECT_THROW(runtime::setup_aware_shard_size(100, 4, 0.1, 0.0), Error);
  EXPECT_THROW(runtime::setup_aware_shard_size(100, 4, 0.1, 1e-3, 0.0),
               Error);
}

// --- the lane schedule ------------------------------------------------------

TEST(LaneSchedule, ReproducesListScheduleMakespanBitForBit) {
  Rng rng(9001);
  for (const unsigned lanes : {1u, 2u, 3u, 7u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> tasks(
          static_cast<std::size_t>(rng.uniform_int(1, 40)));
      for (auto& t : tasks) t = rng.uniform(0.001, 2.0);

      runtime::LaneSchedule projector(lanes);
      for (const double t : tasks) projector.book(0.0, t);

      const double offline = runtime::list_schedule_makespan(tasks, lanes);
      // Same additions to the same lanes in the same order: bit equality,
      // not approximate equality.
      EXPECT_EQ(projector.makespan(), offline)
          << lanes << " lanes, trial " << trial;
    }
  }
}

TEST(LaneSchedule, ListScheduleMatchesAPlainAdditiveSchedule) {
  // The reference: each task added to the earliest-busy-until lane (lowest
  // index on ties), the makespan a running maximum. The lane schedule must
  // give the same lanes and the same makespan bits.
  Rng rng(4242);
  for (const unsigned lanes : {1u, 2u, 4u, 5u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> tasks(
          static_cast<std::size_t>(rng.uniform_int(1, 60)));
      for (auto& t : tasks) t = rng.uniform(1e-6, 3.0);
      std::vector<double> busy(lanes, 0.0);
      std::vector<unsigned> want_lane;
      double want_makespan = 0.0;
      for (const double t : tasks) {
        const auto lane = static_cast<unsigned>(
            std::min_element(busy.begin(), busy.end()) - busy.begin());
        busy[lane] += t;
        want_lane.push_back(lane);
        want_makespan = std::max(want_makespan, busy[lane]);
      }
      std::vector<unsigned> lane_of;
      const double makespan =
          runtime::list_schedule_makespan(tasks, lanes, &lane_of);
      EXPECT_EQ(lane_of, want_lane) << lanes << " lanes, trial " << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(makespan),
                std::bit_cast<std::uint64_t>(want_makespan))
          << lanes << " lanes, trial " << trial;
    }
  }
}

TEST(LaneSchedule, ProjectDoesNotCommitCapacity) {
  runtime::LaneSchedule projector(2);
  const double first = projector.project(0.0, 1.0);
  EXPECT_EQ(first, 1.0);
  EXPECT_EQ(projector.project(0.0, 1.0), first)
      << "project() must be side-effect free";
  EXPECT_EQ(projector.makespan(), 0.0);
  projector.book(0.0, 1.0);
  EXPECT_EQ(projector.makespan(), 1.0);
}

TEST(LaneSchedule, LateArrivalStartsAtArrivalNotLaneFree) {
  runtime::LaneSchedule projector(1);
  projector.book(0.0, 1.0);  // lane free at 1.0
  // Arriving at t=5 on an idle lane starts at 5, not 1.
  EXPECT_EQ(projector.project(5.0, 2.0), 7.0);
  // Arriving at t=0.5 on the busy lane queues behind it.
  EXPECT_EQ(projector.project(0.5, 2.0), 3.0);
}

TEST(LaneSchedule, EarliestFinishWeighsEachLanesOwnCost) {
  runtime::LaneSchedule lanes(3);
  // Lane 0 costs 4 per task, lanes 1 and 2 cost 1: the fast lanes take the
  // first six tasks (lowest index on ties); the seventh would finish at 4
  // on every lane, so it goes to lane 0.
  const double cost[] = {4.0, 1.0, 1.0};
  const auto cost_of = [&](unsigned k) { return cost[k]; };
  std::vector<unsigned> picked;
  for (int task = 0; task < 7; ++task) {
    const unsigned k = lanes.earliest_finish_lane(cost_of);
    const double finish = lanes.book_on(k, 0.0, cost[k]);
    EXPECT_EQ(finish, lanes.free_at(k));
    picked.push_back(k);
  }
  EXPECT_EQ(picked, (std::vector<unsigned>{1, 2, 1, 2, 1, 2, 0}));
  EXPECT_EQ(lanes.free_at(0), 4.0);
  EXPECT_EQ(lanes.free_at(1), 3.0);
  EXPECT_EQ(lanes.makespan(), 4.0);
  // The earliest-free rule ignores costs: lanes 1 and 2 tie at 3.
  EXPECT_EQ(lanes.earliest_free_lane(), 1u);
}

TEST(LaneSchedule, RejectsZeroLanes) {
  EXPECT_THROW(runtime::LaneSchedule(0), Error);
}

TEST(ThreadPool, RunsAllTasksAndPropagatesExceptions) {
  runtime::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter](unsigned) { ++counter; }));
  }
  auto failing = pool.submit([](unsigned) { throw Error("boom"); });
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_THROW(failing.get(), Error);
}

TEST(ThreadPool, LateSubmitFailsFastAfterStop) {
  runtime::ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&counter](unsigned) { ++counter; }));
  }
  pool.stop();
  // Everything accepted before stop ran to completion...
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 8);
  // ... and a submit racing (or trailing) the shutdown throws instead of
  // enqueueing a task no worker will ever run.
  EXPECT_THROW(pool.submit([&counter](unsigned) { ++counter; }), Error);
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, StopIsIdempotent) {
  runtime::ThreadPool pool(2);
  pool.submit([](unsigned) {}).get();
  pool.stop();
  pool.stop();  // second stop (and the destructor's) must be a no-op
  EXPECT_THROW(pool.submit([](unsigned) {}), Error);
}

TEST(ThreadPool, TasksSeeTheirWorkerIndex) {
  runtime::ThreadPool pool(4);
  std::atomic<int> out_of_range{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&](unsigned worker) {
      if (worker >= pool.size()) ++out_of_range;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(out_of_range.load(), 0);

  // Tasks held at a latch at the same moment run on distinct workers, so
  // each sees a distinct index.
  std::latch all_running(4);
  std::vector<unsigned> seen(4, 99);
  futures.clear();
  for (unsigned t = 0; t < 4; ++t) {
    futures.push_back(pool.submit([&, t](unsigned worker) {
      seen[t] = worker;
      all_running.arrive_and_wait();
    }));
  }
  for (auto& f : futures) f.get();
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(ShardRunner, WaitsForEveryShardBeforeRethrowing) {
  for (const unsigned lanes : {1u, 4u}) {
    SCOPED_TRACE(lanes);
    runtime::ShardRunner runner(lanes);
    const auto plan = runtime::plan_shards(16, 1);
    std::atomic<int> returned{0};
    EXPECT_THROW(runner.run(plan,
                            [&](const runtime::Shard& shard, unsigned) {
                              if (shard.index == 5) throw Error("bad shard");
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(2));
                              ++returned;
                              return 1.0;
                            }),
                 Error);
    EXPECT_EQ(returned.load(), 15);

    // The runner outlives the failed call and runs the next one.
    const auto schedule = runner.run(
        plan, [lanes](const runtime::Shard&, unsigned lane) {
          EXPECT_LT(lane, lanes);
          return 1.0;
        });
    EXPECT_EQ(schedule.makespan_seconds, 16.0 / lanes);
    EXPECT_EQ(schedule.lane.size(), plan.size());
  }
}

TEST(ShardRunner, EveryShardRunsOnceOnAnOwnedLane) {
  // Back-to-back runs of random plans, some with throwing shards, on
  // lasting multi-lane runners: the claim loop must hand every shard to
  // exactly one lane, keep lane 0 on the caller and the other lanes off it,
  // never let two shards hold one lane's replica at once, and rethrow the
  // lowest failing plan position.
  Rng rng(2108);
  const auto caller = std::this_thread::get_id();
  for (const unsigned lanes : {2u, 3u, 4u}) {
    SCOPED_TRACE(lanes);
    runtime::ShardRunner runner(lanes);
    std::vector<std::atomic<bool>> in_use(lanes);
    std::atomic<int> shared_lane{0};
    std::atomic<int> misplaced_lane{0};
    int clean_after_failure = 0;
    int helper_shards = 0;
    bool failed_before = false;
    for (int r = 0; r < 1000; ++r) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const auto plan = runtime::plan_shards(n, 1);
      std::vector<char> throws(n, 0);
      if (n > 0 && rng.uniform01() < 0.25) {
        for (auto k = rng.uniform_int(1, 3); k > 0; --k) {
          throws[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] = 1;
        }
      }
      const auto first_failure = static_cast<std::size_t>(
          std::find(throws.begin(), throws.end(), 1) - throws.begin());
      std::vector<std::atomic<int>> runs(n);
      std::vector<unsigned> lane_of(n, lanes);

      std::string error;
      runtime::ShardSchedule schedule;
      try {
        schedule = runner.run(plan, [&](const runtime::Shard& shard,
                                        unsigned lane) {
          if (lane >= lanes) {
            ++misplaced_lane;
            return 0.0;
          }
          if (in_use[lane].exchange(true)) ++shared_lane;
          if ((lane == 0) != (std::this_thread::get_id() == caller)) {
            ++misplaced_lane;
          }
          ++runs[shard.index];
          lane_of[shard.index] = lane;
          std::this_thread::yield();
          in_use[lane].store(false);
          if (throws[shard.index]) {
            throw Error("shard " + std::to_string(shard.index));
          }
          return static_cast<double>(shard.index + 1);
        });
      } catch (const Error& e) {
        error = e.what();
      }

      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "run " << r << ", shard " << i;
        ASSERT_LT(lane_of[i], lanes) << "run " << r << ", shard " << i;
        if (lane_of[i] != 0) ++helper_shards;
      }
      if (first_failure < n) {
        ASSERT_EQ(error, "shard " + std::to_string(first_failure))
            << "run " << r;
        failed_before = true;
        continue;
      }
      ASSERT_EQ(error, "") << "run " << r;
      ASSERT_EQ(schedule.seconds.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(schedule.seconds[i], static_cast<double>(i + 1));
      }
      if (failed_before) ++clean_after_failure;
      failed_before = false;
    }
    EXPECT_EQ(shared_lane.load(), 0);
    EXPECT_EQ(misplaced_lane.load(), 0);
    EXPECT_GT(clean_after_failure, 0);
    EXPECT_GT(helper_shards, 0) << "no shard ran on a worker lane";
  }
}

/// Threads of this process: one /proc/self/task entry each.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(ShardRunner, ZeroLanesMeansAllCoresAndNoThreadStartsBeforeRun) {
  // The thread counts are taken in a child process that runs this test
  // alone ("threadsafe" death tests re-execute the binary), so no thread an
  // earlier test joined can still be listed under /proc/self/task. The
  // child prints the first failed check and exits 1.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const auto check = [](bool ok, const char* what) {
          if (ok) return;
          std::fprintf(stderr, "%s\n", what);
          std::exit(1);
        };
        // A sanitizer runtime may start a helper thread along with the
        // process's first thread; one idle worker, alive until the child
        // exits, makes that happen before the count.
        const runtime::ThreadPool idle(1);
        const std::size_t before = live_threads();
        const runtime::ShardRunner all_cores(0);
        check(all_cores.lanes() ==
                  std::max(1u, std::thread::hardware_concurrency()),
              "0 lanes must select every core");
        runtime::ShardRunner three(3);
        check(three.lanes() == 3u, "3 lanes requested");
        check(live_threads() == before,
              "a runner started a thread before its first run");

        // The first run starts lanes 1 and 2 (the caller is lane 0); later
        // runs reuse them.
        const auto plan = runtime::plan_shards(6, 1);
        const auto one_second = [](const runtime::Shard&, unsigned) {
          return 1.0;
        };
        three.run(plan, one_second);
        check(live_threads() == before + 2,
              "the first run must start exactly 2 threads");
        three.run(plan, one_second);
        check(live_threads() == before + 2,
              "a second run must reuse the 2 threads");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-identical: sharded pricing must merge to exactly the bytes the
/// single-engine baseline produces, in submission order.
void expect_identical(const std::vector<cds::SpreadResult>& got,
                      const std::vector<cds::SpreadResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(bits(got[i].spread_bps), bits(want[i].spread_bps)) << "at " << i;
  }
}

/// The same for a risk run's Sensitivities and CS01-ladder rows.
void expect_identical_risk(const engine::PricingRun& got,
                           const engine::PricingRun& want) {
  ASSERT_EQ(got.sensitivities.size(), want.sensitivities.size());
  for (std::size_t i = 0; i < want.sensitivities.size(); ++i) {
    const auto& g = got.sensitivities[i];
    const auto& w = want.sensitivities[i];
    EXPECT_EQ(bits(g.spread_bps), bits(w.spread_bps)) << "at " << i;
    EXPECT_EQ(bits(g.cs01), bits(w.cs01)) << "at " << i;
    EXPECT_EQ(bits(g.ir01), bits(w.ir01)) << "at " << i;
    EXPECT_EQ(bits(g.rec01), bits(w.rec01)) << "at " << i;
    EXPECT_EQ(bits(g.jtd), bits(w.jtd)) << "at " << i;
  }
  EXPECT_EQ(got.ladder_buckets, want.ladder_buckets);
  ASSERT_EQ(got.cs01_ladder.size(), want.cs01_ladder.size());
  for (std::size_t i = 0; i < want.cs01_ladder.size(); ++i) {
    EXPECT_EQ(bits(got.cs01_ladder[i]), bits(want.cs01_ladder[i]))
        << "ladder cell " << i;
  }
}

TEST(PortfolioRuntime, MatchesSingleEngineAcrossShardBoundaries) {
  // The registry's determinism contract: N lanes of an engine merge to the
  // single engine's bytes -- for every CPU kernel and risk mode (a CPU
  // engine's only parallelism is the runtime's lanes) and for the
  // simulated engines.
  const auto scenario = workload::smoke_scenario(53, 11);
  engine::CpuEngineConfig cpu;
  cpu.ladder_edges = {0.0, 2.0, 5.0, 30.0};  // 3 buckets
  for (const auto* name :
       {"cpu", "cpu-batch", "cpu-vec", "cpu-sweep", "cpu-risk",
        "cpu-batch-risk", "cpu-vec-risk", "dataflow", "vectorised"}) {
    SCOPED_TRACE(name);
    auto single = engine::make_engine(name, scenario.interest,
                                      scenario.hazard, {}, cpu);
    const auto baseline = single->price(scenario.options);

    runtime::RuntimeConfig cfg;
    cfg.engine = name;
    cfg.workers = 3;
    cfg.shard_size = 7;  // 53 = 7*7 + 4: exercises a ragged final shard
    cfg.cpu = cpu;
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    const auto run = rt.price(scenario.options);

    expect_identical(run.run.results, baseline.results);
    expect_identical_risk(run.run, baseline);
    EXPECT_EQ(run.run.sensitivities.empty(),
              std::string(name).find("-risk") == std::string::npos);
    EXPECT_EQ(run.shards.size(), 8u);
    EXPECT_EQ(run.lanes, 3u);
    EXPECT_GT(run.run.options_per_second, 0.0);
    EXPECT_GT(run.wall_seconds, 0.0);
  }
}

TEST(PortfolioRuntime, BadOptionOnACpuLaneThrowsAndTheNextCallMatches) {
  // A CPU engine rejects an unpriceable option on whichever lane prices it;
  // the runtime surfaces a catchable Error, and the next call still merges
  // to the single engine's bytes.
  const auto scenario = workload::smoke_scenario(12);
  auto bad = scenario.options;
  bad[7].maturity_years = -1.0;  // no premium schedule -> zero annuity
  for (const auto* name : {"cpu", "cpu-batch"}) {
    SCOPED_TRACE(name);
    runtime::RuntimeConfig cfg;
    cfg.engine = name;
    cfg.workers = 3;
    cfg.shard_size = 4;  // the bad option sits in the second shard
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    EXPECT_THROW(rt.price(bad), Error);

    const auto want = engine::make_engine(name, scenario.interest,
                                          scenario.hazard)
                          ->price(scenario.options);
    expect_identical(rt.price(scenario.options).run.results, want.results);
  }
}

TEST(PortfolioRuntime, EmptyPortfolio) {
  const auto scenario = workload::smoke_scenario(1, 5);
  runtime::RuntimeConfig cfg;
  cfg.workers = 4;
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
  const auto run = rt.price({});
  EXPECT_TRUE(run.run.results.empty());
  EXPECT_TRUE(run.shards.empty());
  EXPECT_EQ(run.run.options_per_second, 0.0);
  EXPECT_EQ(run.run.total_seconds, 0.0);
}

TEST(PortfolioRuntime, SingleOptionPortfolio) {
  const auto scenario = workload::smoke_scenario(1, 5);
  auto single = engine::make_engine("vectorised", scenario.interest,
                                    scenario.hazard);
  const auto baseline = single->price(scenario.options);

  runtime::RuntimeConfig cfg;
  cfg.engine = "vectorised";
  cfg.workers = 4;
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
  const auto run = rt.price(scenario.options);
  ASSERT_EQ(run.shards.size(), 1u);
  expect_identical(run.run.results, baseline.results);
}

TEST(PortfolioRuntime, DeterministicAcrossWorkerCounts) {
  const auto scenario = workload::smoke_scenario(41, 23);
  std::vector<cds::SpreadResult> reference;
  for (const unsigned workers : {1u, 2u, 5u}) {
    SCOPED_TRACE(workers);
    runtime::RuntimeConfig cfg;
    cfg.engine = "vectorised";
    cfg.workers = workers;
    cfg.shard_size = 6;  // hold the plan fixed while the lane count varies
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    const auto run = rt.price(scenario.options);
    if (reference.empty()) {
      reference = run.run.results;
    } else {
      expect_identical(run.run.results, reference);
    }
  }
}

TEST(PortfolioRuntime, ModelledMakespanScalesWithLanes) {
  // Simulated engine => deterministic per-shard times: one lane prices
  // shards back to back, four lanes overlap them.
  const auto scenario = workload::smoke_scenario(64, 3);
  auto run_with = [&](unsigned workers) {
    runtime::RuntimeConfig cfg;
    cfg.engine = "vectorised";
    cfg.workers = workers;
    cfg.shard_size = 4;
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    return rt.price(scenario.options);
  };
  const auto one = run_with(1);
  const auto four = run_with(4);
  expect_identical(four.run.results, one.run.results);
  EXPECT_GT(one.run.total_seconds, four.run.total_seconds * 1.5);
  // Total simulated work is lane-count independent.
  EXPECT_EQ(one.run.kernel_cycles, four.run.kernel_cycles);
}

TEST(PortfolioRuntime, FailingShardThrowsAndTheRuntimeStaysUsable) {
  const auto scenario = workload::smoke_scenario(128, 7);
  // The simulated engines stream every option of a shard through the
  // arrival-pace hook; counting calls shows which shards have run.
  std::atomic<std::size_t> streamed{0};
  runtime::RuntimeConfig cfg;
  cfg.engine = "vectorised";
  cfg.workers = 4;
  cfg.shard_size = 8;  // 16 shards over 4 lanes
  cfg.fpga.option_arrival_pace = [&streamed](const engine::OptionToken&) {
    ++streamed;
    return sim::Cycle{1};
  };
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);

  // Shard 6 rejects its options before streaming any, while later shards
  // are still queued: price() throws only once all 15 others have returned
  // (else they would also write into the call's freed outputs).
  auto bad = scenario.options;
  bad[6 * 8 + 1].maturity_years = -1.0;
  EXPECT_THROW(rt.price(bad), Error);
  EXPECT_EQ(streamed.load(), 15u * 8);

  cfg.workers = 1;
  runtime::PortfolioRuntime single(scenario.interest, scenario.hazard, cfg);
  const auto want = single.price(scenario.options);
  const auto got = rt.price(scenario.options);
  expect_identical(got.run.results, want.run.results);
  EXPECT_EQ(got.lanes, 4u);
}

TEST(PortfolioRuntime, RejectsUnknownEngine) {
  const auto scenario = workload::smoke_scenario(4, 2);
  runtime::RuntimeConfig cfg;
  cfg.engine = "warp-drive";
  EXPECT_THROW(
      runtime::PortfolioRuntime(scenario.interest, scenario.hazard, cfg),
      Error);
}

}  // namespace
}  // namespace cdsflow
