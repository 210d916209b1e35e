/// \file test_cluster_runtime.cpp
/// Multi-process cluster scale-out: planner properties of plan_cluster()
/// (heterogeneous divergence, link charging) plus end-to-end coordinator /
/// worker runs over real unix-domain sockets -- the bit-identity contract
/// (docs/CLUSTER.md) against the in-process PortfolioRuntime, and the
/// coordinator edge cases: timeout validation, connect timeout, mid-shard
/// worker death with orphan resubmission, wrong-mode rejection, reuse of a
/// coordinator (and its drive lanes) after either, and version-mismatch
/// poisoning at the worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/coordinator.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "engines/planner.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "runtime/shard.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"

namespace cdsflow {
namespace {

cds::TermStructure test_interest() {
  return workload::paper_interest_curve(64, 11);
}
cds::TermStructure test_hazard() { return workload::paper_hazard_curve(64, 23); }

std::string unique_socket_path(const char* tag) {
  static int counter = 0;
  return "/tmp/cdsflow-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++) +
         ".sock";
}

std::vector<cds::CdsOption> test_book(std::size_t count, unsigned seed = 7) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.seed = seed;
  return workload::make_portfolio(spec);
}

engine::ClusterNode make_node(double ops_per_second,
                              const std::string& address = "node") {
  engine::ClusterNode node;
  node.address = address;
  node.fit.engine_name = "cpu-batch";
  node.fit.options_per_second = ops_per_second;
  node.fit.setup_seconds = 1e-4;
  node.fit.watts = 60.0;
  return node;
}

/// One in-process worker: a net::Server on its own thread driven by a
/// ClusterWorker, torn down (stop + join) by the destructor. Uses a pinned
/// fit so plans are deterministic and construction is instant.
struct InProcessWorker {
  std::string path;
  std::unique_ptr<cluster::ClusterWorker> worker;
  std::unique_ptr<net::Server> server;
  std::thread thread;

  InProcessWorker(const char* tag, cluster::WorkerConfig config) {
    path = unique_socket_path(tag);
    worker = std::make_unique<cluster::ClusterWorker>(
        test_interest(), test_hazard(), std::move(config));
    net::ServerConfig server_config;
    server_config.unix_path = path;
    server = std::make_unique<net::Server>(server_config);
    thread = std::thread([this] { server->run(*worker); });
  }

  ~InProcessWorker() {
    server->stop();
    thread.join();
  }
};

cluster::WorkerConfig pinned_worker(const std::string& engine,
                                    double ops_per_second) {
  cluster::WorkerConfig config;
  config.runtime.engine = engine;
  config.runtime.workers = 1;
  config.fit.options_per_second = ops_per_second;
  config.fit.setup_seconds = 1e-4;
  config.fit.watts = 60.0;
  return config;
}

cluster::NodeSpec node_spec(const std::string& path) {
  cluster::NodeSpec spec;
  spec.unix_path = path;
  spec.connect_timeout_seconds = 10.0;
  // Keep the link model configuration-only so plans depend on the pinned
  // fits, not on loopback timing noise.
  spec.measure_latency = false;
  return spec;
}

/// Threads of this process: one /proc/self/task entry each.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

void expect_run_bit_identical(const engine::PricingRun& a,
                              const engine::PricingRun& b, bool risk) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].id, b.results[i].id);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.results[i].spread_bps),
              std::bit_cast<std::uint64_t>(b.results[i].spread_bps))
        << "spread mismatch at row " << i;
  }
  if (!risk) {
    return;
  }
  ASSERT_EQ(a.sensitivities.size(), b.sensitivities.size());
  for (std::size_t i = 0; i < a.sensitivities.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensitivities[i].cs01),
              std::bit_cast<std::uint64_t>(b.sensitivities[i].cs01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensitivities[i].ir01),
              std::bit_cast<std::uint64_t>(b.sensitivities[i].ir01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensitivities[i].rec01),
              std::bit_cast<std::uint64_t>(b.sensitivities[i].rec01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensitivities[i].jtd),
              std::bit_cast<std::uint64_t>(b.sensitivities[i].jtd));
  }
}

// --- plan_cluster() properties ----------------------------------------------

TEST(ClusterPlanner, HeterogeneousFitsDivergeFromTheHomogeneousSplit) {
  engine::BatchRequirements requirements;
  requirements.n_options = 4096;
  requirements.deadline_seconds = 3600.0;

  // Equal nodes: the earliest-finish schedule balances shards evenly.
  const std::vector<engine::ClusterNode> equal = {make_node(1e6, "a"),
                                                  make_node(1e6, "b")};
  const auto balanced =
      engine::plan_cluster(equal, requirements, false, {512}).front();
  ASSERT_EQ(balanced.shards_per_node.size(), 2u);
  EXPECT_EQ(balanced.shards_per_node[0], balanced.shards_per_node[1]);

  // A 4x throughput imbalance must shift shards toward the fast node --
  // the acceptance gate: distinct fits provably change the assignment.
  const std::vector<engine::ClusterNode> skewed = {make_node(4e6, "fast"),
                                                   make_node(1e6, "slow")};
  const auto skewed_plan =
      engine::plan_cluster(skewed, requirements, false, {512}).front();
  ASSERT_EQ(skewed_plan.shards_per_node.size(), 2u);
  EXPECT_GT(skewed_plan.shards_per_node[0], skewed_plan.shards_per_node[1]);
  EXPECT_NE(skewed_plan.node_of_shard, balanced.node_of_shard);
  // Same book, same shard size: every shard is still assigned exactly once.
  EXPECT_EQ(skewed_plan.shards_per_node[0] + skewed_plan.shards_per_node[1],
            skewed_plan.n_shards);
  EXPECT_EQ(skewed_plan.n_shards, balanced.n_shards);
}

TEST(ClusterPlanner, LinkChargeFollowsTheExactWireByteFormula) {
  auto node = make_node(1e6);
  node.link.latency_seconds = 1e-3;
  node.link.bytes_per_second = 1e6;
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{1000}}) {
    for (const bool risk : {false, true}) {
      const std::uint64_t bytes = net::shard_price_frame_bytes(n) +
                                  net::shard_result_frame_bytes(n, risk);
      const double expected = node.fit.seconds_for(n) +
                              node.link.seconds_for(bytes);
      EXPECT_DOUBLE_EQ(engine::cluster_shard_seconds(node, n, risk),
                       expected);
    }
  }
  // Risk rows are wider on the wire, so the risk charge strictly dominates.
  EXPECT_GT(engine::cluster_shard_seconds(node, 256, true),
            engine::cluster_shard_seconds(node, 256, false));
}

TEST(ClusterPlanner, SlowerLinkRaisesProjectedTimeMonotonically) {
  engine::BatchRequirements requirements;
  requirements.n_options = 2048;
  requirements.deadline_seconds = 3600.0;
  auto fast_link = make_node(1e6);
  auto slow_link = make_node(1e6);
  slow_link.link.bytes_per_second = 1e4;  // 100,000x slower pipe
  const auto fast = engine::plan_cluster({fast_link}, requirements, false,
                                         {256}).front();
  const auto slow = engine::plan_cluster({slow_link}, requirements, false,
                                         {256}).front();
  EXPECT_GT(slow.projected_seconds, fast.projected_seconds);
  EXPECT_GT(slow.projected_joules, fast.projected_joules);
}

TEST(ClusterPlanner, RejectsDegenerateInputs) {
  engine::BatchRequirements requirements;
  requirements.n_options = 128;
  requirements.deadline_seconds = 1.0;
  EXPECT_THROW(engine::plan_cluster({}, requirements), Error);
  auto unfit = make_node(0.0);
  EXPECT_THROW(engine::plan_cluster({unfit}, requirements), Error);
  engine::BatchRequirements empty_batch;
  empty_batch.n_options = 0;
  EXPECT_THROW(engine::plan_cluster({make_node(1e6)}, empty_batch), Error);
}

TEST(ClusterPlanner, EarliestFinishMatchesAPlainReference) {
  // The reference: each shard to the node with the least free time plus
  // its own shard cost (lowest index on ties), energy the node's watts
  // times that cost. plan_cluster() must give the same nodes and bits.
  std::vector<engine::ClusterNode> nodes = {
      make_node(4e6, "a"), make_node(1e6, "b"), make_node(2.5e6, "c")};
  nodes[1].fit.watts = 35.0;
  nodes[2].link.latency_seconds = 2e-4;
  nodes[2].link.bytes_per_second = 2e8;
  const engine::BatchRequirements req{10'000, 1e9};
  for (const bool risk : {false, true}) {
    for (const std::size_t shard_size : {97, 500, 1250, 4096}) {
      SCOPED_TRACE(shard_size);
      const auto plans = engine::plan_cluster(nodes, req, risk, {shard_size});
      ASSERT_EQ(plans.size(), 1u);
      std::vector<double> free_at(nodes.size(), 0.0);
      std::vector<std::size_t> want_node;
      double want_joules = 0.0;
      for (const auto& shard : runtime::plan_shards(req.n_options,
                                                    shard_size)) {
        std::size_t best = 0;
        double best_finish = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          const double finish =
              free_at[k] +
              engine::cluster_shard_seconds(nodes[k], shard.size(), risk);
          if (finish < best_finish) {
            best = k;
            best_finish = finish;
          }
        }
        want_joules += nodes[best].fit.watts * (best_finish - free_at[best]);
        free_at[best] = best_finish;
        want_node.push_back(best);
      }
      EXPECT_EQ(plans[0].node_of_shard, want_node);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(plans[0].projected_seconds),
                std::bit_cast<std::uint64_t>(
                    *std::max_element(free_at.begin(), free_at.end())));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(plans[0].projected_joules),
                std::bit_cast<std::uint64_t>(want_joules));
    }
  }
}

TEST(ClusterPlanner, IdenticalNodesOnAFreeLinkPlanLikeTheRuntime) {
  // docs/CLUSTER.md: with identical nodes the earliest-finish assignment
  // reduces to the runtime's list schedule, so a homogeneous cluster on a
  // zero-cost link plans exactly like the in-process runtime -- bit for bit.
  const std::size_t n = 1000;
  const engine::BatchRequirements req{n, 1e9};
  for (unsigned lanes = 1; lanes <= 4; ++lanes) {
    SCOPED_TRACE(lanes);
    std::vector<engine::ClusterNode> nodes(lanes, make_node(1e6));
    for (auto& node : nodes) {
      node.link.latency_seconds = 0.0;
      node.link.bytes_per_second = std::numeric_limits<double>::infinity();
    }
    const engine::BackendCandidate& fit = nodes.front().fit;

    // Any shard size: the runtime's lane schedule over seconds_for.
    for (const std::size_t shard_size : {1, 7, 64, 250, 1000}) {
      SCOPED_TRACE(shard_size);
      const auto plans = engine::plan_cluster(nodes, req, false, {shard_size});
      ASSERT_EQ(plans.size(), 1u);
      std::vector<double> costs;
      for (const auto& shard : runtime::plan_shards(n, shard_size)) {
        costs.push_back(fit.seconds_for(shard.size()));
      }
      std::vector<unsigned> lane_of;
      const double makespan =
          runtime::list_schedule_makespan(costs, lanes, &lane_of);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(plans[0].projected_seconds),
                std::bit_cast<std::uint64_t>(makespan));
      ASSERT_EQ(plans[0].node_of_shard.size(), lane_of.size());
      for (std::size_t i = 0; i < lane_of.size(); ++i) {
        EXPECT_EQ(plans[0].node_of_shard[i], lane_of[i]) << "shard " << i;
      }
    }

    // The default shard sizes: plan_runtime()'s projection of the same
    // candidate on as many lanes.
    engine::PlannerConfig config;
    config.worker_counts = {lanes};
    const auto runtime_plans = engine::plan_runtime({fit}, req, config);
    const auto cluster_plans = engine::plan_cluster(nodes, req);
    ASSERT_FALSE(cluster_plans.empty());
    for (const auto& plan : cluster_plans) {
      SCOPED_TRACE(plan.shard_size);
      bool found = false;
      for (const auto& entry : runtime_plans) {
        if (entry.config.shard_size != plan.shard_size) continue;
        found = true;
        EXPECT_EQ(entry.config.workers, lanes);
        EXPECT_EQ(entry.n_shards, plan.n_shards);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(entry.projected_seconds),
                  std::bit_cast<std::uint64_t>(plan.projected_seconds));
      }
      EXPECT_TRUE(found) << "plan_runtime has no shard size "
                         << plan.shard_size;
    }
  }
}

// --- end-to-end bit-identity ------------------------------------------------

TEST(ClusterRuntime, SingleNodeClusterIsBitIdenticalToTheLocalRuntime) {
  InProcessWorker worker("cluster-n1", pinned_worker("cpu-batch", 1e6));
  cluster::CoordinatorConfig config;
  config.nodes = {node_spec(worker.path)};
  config.shard_size = 96;
  cluster::ClusterCoordinator coordinator(config);

  const auto book = test_book(500);
  const auto cluster_run = coordinator.price(book);
  EXPECT_EQ(cluster_run.resubmissions, 0u);
  EXPECT_EQ(cluster_run.nodes_lost, 0u);
  EXPECT_GT(cluster_run.run.options_per_second, 0.0);

  runtime::RuntimeConfig local_config;
  local_config.engine = "cpu-batch";
  local_config.workers = 1;
  runtime::PortfolioRuntime local(test_interest(), test_hazard(),
                                  local_config);
  const auto local_run = local.price(book);
  expect_run_bit_identical(cluster_run.run, local_run.run, false);
}

TEST(ClusterRuntime, TwoHeterogeneousNodesMergeBitIdenticallyAndDiverge) {
  // 4:1 pinned fits: the plan must favour the fast node, yet the merged
  // rows must not depend on who priced what.
  InProcessWorker fast("cluster-fast", pinned_worker("cpu-batch", 4e6));
  InProcessWorker slow("cluster-slow", pinned_worker("cpu-batch", 1e6));
  cluster::CoordinatorConfig config;
  config.nodes = {node_spec(fast.path), node_spec(slow.path)};
  config.shard_size = 64;
  cluster::ClusterCoordinator coordinator(config);

  const auto plan = coordinator.plan(512);
  ASSERT_EQ(plan.shards_per_node.size(), 2u);
  EXPECT_GT(plan.shards_per_node[0], plan.shards_per_node[1]);

  const auto book = test_book(512);
  const auto cluster_run = coordinator.price(book);
  EXPECT_EQ(cluster_run.nodes_lost, 0u);
  EXPECT_EQ(cluster_run.shards.size(), plan.n_shards);

  runtime::RuntimeConfig local_config;
  local_config.engine = "cpu-batch";
  local_config.workers = 1;
  runtime::PortfolioRuntime local(test_interest(), test_hazard(),
                                  local_config);
  expect_run_bit_identical(cluster_run.run, local.price(book).run, false);
}

TEST(ClusterRuntime, RiskModeShardsCarryBitIdenticalSensitivities) {
  InProcessWorker a("cluster-risk-a", pinned_worker("cpu-batch-risk", 2e6));
  InProcessWorker b("cluster-risk-b", pinned_worker("cpu-batch-risk", 1e6));
  cluster::CoordinatorConfig config;
  config.nodes = {node_spec(a.path), node_spec(b.path)};
  config.shard_size = 48;
  config.risk = true;
  cluster::ClusterCoordinator coordinator(config);

  const auto book = test_book(300);
  const auto cluster_run = coordinator.price(book);
  ASSERT_EQ(cluster_run.run.sensitivities.size(), book.size());

  runtime::RuntimeConfig local_config;
  local_config.engine = "cpu-batch-risk";
  local_config.workers = 1;
  runtime::PortfolioRuntime local(test_interest(), test_hazard(),
                                  local_config);
  expect_run_bit_identical(cluster_run.run, local.price(book).run, true);
}

// --- coordinator edge cases -------------------------------------------------

TEST(ClusterRuntime, ConnectTimeoutNamesTheUnreachableNode) {
  cluster::CoordinatorConfig config;
  cluster::NodeSpec spec;
  spec.unix_path = unique_socket_path("cluster-nobody");  // never bound
  spec.connect_timeout_seconds = 0.2;
  config.nodes = {spec};
  try {
    cluster::ClusterCoordinator coordinator(config);
    FAIL() << "expected a connect timeout";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("connect timed out"), std::string::npos) << what;
    EXPECT_NE(what.find(spec.unix_path), std::string::npos) << what;
  }
}

TEST(ClusterRuntime, OutOfRangeTimeoutsAreRejectedBeforeConnecting) {
  // Both timeouts end up as poll()'s int millisecond count: NaN, negative
  // and out-of-range values (1e300 s, or 30 days > INT_MAX ms) must fail
  // construction instead of converting undefinedly or wrapping into a
  // 1 ms timeout that declares a healthy node dead.
  InProcessWorker worker("cluster-timeouts", pinned_worker("cpu-batch", 1e6));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double thirty_days = 30.0 * 24 * 3600;
  for (const double bad : {nan, -1.0, 1e300, thirty_days}) {
    SCOPED_TRACE(bad);
    cluster::CoordinatorConfig config;
    config.nodes = {node_spec(worker.path)};
    config.response_timeout_seconds = bad;
    EXPECT_THROW(cluster::ClusterCoordinator{config}, Error);

    config.response_timeout_seconds = 300.0;
    config.nodes[0].connect_timeout_seconds = bad;
    EXPECT_THROW(cluster::ClusterCoordinator{config}, Error);
  }
  cluster::CoordinatorConfig config;
  config.nodes = {node_spec(worker.path)};
  config.response_timeout_seconds = 0.0;  // must be positive
  EXPECT_THROW(cluster::ClusterCoordinator{config}, Error);
  // In range: a zero connect timeout (one attempt) and a 24-day response
  // timeout construct.
  config.response_timeout_seconds = 24.0 * 24 * 3600;
  config.nodes[0].connect_timeout_seconds = 0.0;
  cluster::ClusterCoordinator coordinator(config);
  EXPECT_EQ(coordinator.nodes().size(), 1u);
}

TEST(ClusterRuntime, MidShardWorkerDeathResubmitsOrphansToSurvivors) {
  // The failing node answers two shards, then drops the connection with the
  // third in flight; its orphans (in-flight + queued) must drain through
  // the healthy node, and the merged rows must still be bit-identical.
  auto failing = pinned_worker("cpu-batch", 4e6);
  failing.fail_after_shards = 2;
  InProcessWorker dying("cluster-dying", std::move(failing));
  InProcessWorker healthy("cluster-healthy", pinned_worker("cpu-batch", 1e6));

  cluster::CoordinatorConfig config;
  config.nodes = {node_spec(dying.path), node_spec(healthy.path)};
  config.shard_size = 32;  // 10 shards over 320 options
  const std::size_t threads_before = live_threads();
  cluster::ClusterCoordinator coordinator(config);
  EXPECT_EQ(live_threads(), threads_before) << "construction starts no thread";

  const auto book = test_book(320);
  const auto plan = coordinator.plan(book.size());
  ASSERT_GT(plan.shards_per_node[0], 2u)
      << "plan must queue more shards on the dying node than it survives";

  const auto run = coordinator.price(book);
  EXPECT_EQ(run.nodes_lost, 1u);
  EXPECT_GE(run.resubmissions, 1u);
  ASSERT_EQ(run.run.results.size(), book.size());
  // The first multi-node call starts one drive lane per node beyond the
  // caller's, and keeps it.
  const std::size_t threads_after_first = live_threads();
  EXPECT_EQ(threads_after_first, threads_before + 1);

  runtime::RuntimeConfig local_config;
  local_config.engine = "cpu-batch";
  local_config.workers = 1;
  runtime::PortfolioRuntime local(test_interest(), test_hazard(),
                                  local_config);
  const auto want = local.price(book).run;
  expect_run_bit_identical(run.run, want, false);
  // Every shard the dying node never priced was re-priced by the survivor.
  for (const auto& shard : run.shards) {
    if (shard.resubmitted) {
      EXPECT_EQ(shard.node, 1u);
    }
  }

  // The coordinator stays usable: the dead node is still in the plan, its
  // drive task finds the connection gone and orphans every shard, and the
  // survivor prices the whole book on the same lanes.
  EXPECT_EQ(coordinator.plan(book.size()).shards_per_node[0],
            plan.shards_per_node[0]);
  const auto again = coordinator.price(book);
  EXPECT_EQ(again.nodes_lost, 1u);
  EXPECT_EQ(again.resubmissions, plan.shards_per_node[0]);
  expect_run_bit_identical(again.run, want, false);
  for (const auto& shard : again.shards) {
    EXPECT_EQ(shard.node, 1u);
  }
  EXPECT_EQ(live_threads(), threads_after_first);
}

TEST(ClusterRuntime, WrongModeWorkerRejectionIsFatalNotResubmitted) {
  // A price-mode worker sent risk shards is a configuration error: the
  // worker answers kWrongMode and the run aborts instead of retrying. A
  // second call on the same coordinator fails the same way instead of
  // hanging -- driven inline on one node, on the drive lanes on two.
  InProcessWorker a("cluster-mode-a", pinned_worker("cpu-batch", 1e6));
  InProcessWorker b("cluster-mode-b", pinned_worker("cpu-batch", 1e6));
  for (const std::size_t n_nodes : {1u, 2u}) {
    SCOPED_TRACE(n_nodes);
    cluster::CoordinatorConfig config;
    config.nodes = {node_spec(a.path)};
    if (n_nodes == 2) config.nodes.push_back(node_spec(b.path));
    config.risk = true;
    cluster::ClusterCoordinator coordinator(config);
    for (int call = 0; call < 2; ++call) {
      SCOPED_TRACE(call);
      try {
        coordinator.price(test_book(64));
        FAIL() << "expected a wrong-mode rejection";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rejected a shard"), std::string::npos) << what;
        EXPECT_NE(what.find("wrong-mode"), std::string::npos) << what;
      }
    }
  }
}

TEST(ClusterRuntime, WorkerRejectsNonFiniteAndOutOfRangeShardOptions) {
  InProcessWorker worker("cluster-bad", pinned_worker("cpu-batch", 1e6));
  auto client = net::Client::connect_unix(worker.path);
  auto book = test_book(4);

  auto non_finite = book;
  non_finite[2].recovery_rate = std::numeric_limits<double>::quiet_NaN();
  client.send(net::encode_shard_price(0, non_finite));
  auto reply = client.read_frame_for(5'000'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kReject);
  EXPECT_EQ(reply->reason, net::RejectReason::kMalformed);
  EXPECT_NE(reply->detail.find("non-finite"), std::string::npos)
      << reply->detail;

  auto out_of_range = book;
  out_of_range[1].recovery_rate = 2.0;
  client.send(net::encode_shard_price(1, out_of_range));
  reply = client.read_frame_for(5'000'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kReject);
  EXPECT_EQ(reply->reason, net::RejectReason::kMalformed);
  EXPECT_EQ(reply->request, 1u);

  // Both rejects left the connection up: a valid shard still prices.
  client.send(net::encode_shard_price(2, book));
  reply = client.read_frame_for(5'000'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kShardResult);
  EXPECT_EQ(reply->results.size(), book.size());
}

TEST(ClusterRuntime, VersionMismatchedPeerIsRejectedAndPoisoned) {
  // A peer speaking wire version 1 must get a kMalformed reject naming the
  // version, and nothing after the bad frame may be parsed.
  InProcessWorker worker("cluster-ver", pinned_worker("cpu-batch", 1e6));
  auto client = net::Client::connect_unix(worker.path);
  auto probe = net::encode_node_probe(0);
  probe[4] = 1;  // wire version byte: kWireVersion - 1
  client.send(probe);
  auto reply = client.read_frame_for(5'000'000);
  ASSERT_TRUE(reply.has_value()) << "worker sent no reject before closing";
  EXPECT_EQ(reply->type, net::FrameType::kReject);
  EXPECT_EQ(reply->reason, net::RejectReason::kMalformed);
  EXPECT_NE(reply->detail.find("version"), std::string::npos)
      << reply->detail;
  // The server tears the poisoned connection down: a fresh, correct client
  // still gets service (the poisoning is per-connection).
  auto fresh = net::Client::connect_unix(worker.path);
  fresh.send(net::encode_node_probe(1));
  auto info = fresh.read_frame_for(5'000'000);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->type, net::FrameType::kNodeProbe);
  EXPECT_TRUE(info->probe_reply);
  EXPECT_EQ(info->engine, "cpu-batch");
}

TEST(ClusterRuntime, UnpinnedWorkerCalibratesAtConstructionAndReportsIt) {
  // No pinned fit: the worker runs the planner's probe protocol on its own
  // runtime when built, and NODE_PROBE answers with that fit.
  cluster::WorkerConfig config;
  config.runtime.engine = "cpu-batch";
  config.runtime.workers = 1;
  config.probe_sizes = {64, 16, 64};
  InProcessWorker worker("cluster-calibrated", std::move(config));
  const engine::BackendCandidate& fit = worker.worker->fit();
  EXPECT_EQ(fit.engine_name, "cpu-batch");
  EXPECT_GT(fit.options_per_second, 0.0);
  EXPECT_GE(fit.setup_seconds, 0.0);
  EXPECT_GT(fit.watts, 0.0);
  ASSERT_EQ(fit.probes.size(), 2u);
  EXPECT_EQ(fit.probes[0].n_options, 16u);
  EXPECT_EQ(fit.probes[1].n_options, 64u);

  cluster::CoordinatorConfig coordinator_config;
  coordinator_config.nodes = {node_spec(worker.path)};
  coordinator_config.probe_repeats = 1;
  cluster::ClusterCoordinator coordinator(coordinator_config);
  ASSERT_EQ(coordinator.nodes().size(), 1u);
  const auto& reported = coordinator.nodes().front().fit;
  EXPECT_EQ(reported.engine_name, fit.engine_name);
  EXPECT_EQ(reported.options_per_second, fit.options_per_second);
  EXPECT_EQ(reported.setup_seconds, fit.setup_seconds);
  EXPECT_EQ(reported.watts, fit.watts);
}

TEST(ClusterRuntime, EmptyBookShortCircuitsWithoutTouchingTheWire) {
  InProcessWorker worker("cluster-empty", pinned_worker("cpu-batch", 1e6));
  cluster::CoordinatorConfig config;
  config.nodes = {node_spec(worker.path)};
  cluster::ClusterCoordinator coordinator(config);
  const auto run = coordinator.price({});
  EXPECT_TRUE(run.run.results.empty());
  EXPECT_EQ(run.shards.size(), 0u);
}

}  // namespace
}  // namespace cdsflow
