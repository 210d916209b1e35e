/// \file coordinator.hpp
/// Cluster coordinator: shard a book across N worker processes over
/// sockets, merge the shard results deterministically.
///
/// Construction connects to every configured worker (retrying until the
/// per-node connect timeout), probes each with NODE_PROBE -- measuring the
/// link round trip and collecting the worker's self-reported affine fit --
/// and builds the heterogeneous node table engine::plan_cluster() plans
/// over. price() cuts the book into contiguous shards (runtime::plan_shards,
/// the same contiguity that makes the in-process merge deterministic),
/// assigns them to nodes with the planner's earliest-finish schedule, and
/// drives each node as one task on a runtime::ShardRunner with one lane per
/// node, the caller's thread included; results are merged by concatenating
/// shard rows in shard (= submission) order, so the merged values are
/// bit-identical to a single-process run of the same engine whatever node
/// priced which shard (see docs/CLUSTER.md for the full contract).
///
/// Threads: construction starts none. The caller drives one node itself, as
/// the runner's lane 0; a cluster of N nodes starts N - 1 lane threads on
/// its first price() and keeps them until it is destroyed, so a one-node
/// cluster never starts a thread and no later call starts one.
///
/// Failure semantics: a worker that drops its connection or times out
/// mid-run is declared dead for the run; its unfinished shards (including
/// the one in flight) move to an orphan queue that surviving nodes drain
/// after their own assignment. A reject frame from a worker is a
/// configuration error and aborts the run; losing every node with shards
/// outstanding does too, and so does any other exception inside a drive
/// task.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cds/types.hpp"
#include "engines/engine.hpp"
#include "engines/planner.hpp"
#include "net/client.hpp"
#include "runtime/shard_runner.hpp"

namespace cdsflow::cluster {

/// Where one worker listens and how its link is modelled.
struct NodeSpec {
  /// Non-empty: connect over this unix-domain socket path.
  std::string unix_path;
  /// Used when unix_path is empty.
  std::string host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  /// Construction retries the connect until this deadline (covers workers
  /// still starting up), then throws. Finite, >= 0 and at most INT_MAX ms.
  double connect_timeout_seconds = 5.0;
  /// Link model. The latency term is replaced by the measured probe round
  /// trip (min over repeats, halved) unless measure_latency is false; the
  /// bandwidth term is configuration.
  engine::ClusterLinkModel link;
  bool measure_latency = true;

  std::string label() const {
    return unix_path.empty() ? host + ":" + std::to_string(tcp_port)
                             : unix_path;
  }
};

struct CoordinatorConfig {
  std::vector<NodeSpec> nodes;
  /// Options per shard; 0 lets plan_cluster() pick the best size.
  std::size_t shard_size = 0;
  double deadline_seconds = 3600.0;
  /// Risk-mode shards (workers must run a risk engine).
  bool risk = false;
  /// NODE_PROBE round trips per node at construction (min RTT is kept).
  unsigned probe_repeats = 3;
  /// A node that takes longer than this to answer one shard is declared
  /// dead for the run and its shards are resubmitted. Finite, > 0 and at
  /// most INT_MAX ms.
  double response_timeout_seconds = 300.0;
};

/// Per-shard accounting, in shard (= submission) order.
struct ClusterShardOutcome {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Node that finally priced the shard.
  std::size_t node = 0;
  /// Worker-reported engine time for the shard.
  double engine_seconds = 0.0;
  /// Modelled link charge for the shard's request + response bytes.
  double link_seconds = 0.0;
  /// True when the shard had to be resubmitted after a node loss.
  bool resubmitted = false;
};

struct ClusterRun {
  /// Merged run, rows in submission order. total_seconds is the modelled
  /// concurrent makespan (per node: sum of its shards' engine + link time;
  /// max over nodes) and options_per_second the modelled throughput --
  /// the same modelled-vs-wall split PortfolioRuntime reports. The CS01
  /// ladder does not travel on the wire, so cs01_ladder stays empty even
  /// in risk mode.
  engine::PricingRun run;
  std::vector<ClusterShardOutcome> shards;

  /// The plan the dispatch started from (before any failure rerouting).
  engine::ClusterPlanEntry plan;
  std::size_t shard_size = 0;
  std::size_t n_nodes = 0;

  double wall_seconds = 0.0;
  double wall_options_per_second = 0.0;

  std::size_t resubmissions = 0;
  std::size_t nodes_lost = 0;
};

class ClusterCoordinator {
 public:
  /// Connects to and probes every node. Throws cdsflow::Error -- before
  /// connecting -- when a timeout is out of range, and when a node cannot
  /// be reached within its connect timeout or answers the probe with
  /// anything but a node-info reply.
  explicit ClusterCoordinator(CoordinatorConfig config);

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// The probed node table (address, fit, measured link), in config order.
  const std::vector<engine::ClusterNode>& nodes() const { return nodes_; }

  /// The plan price() would execute for a book of `n_options`.
  engine::ClusterPlanEntry plan(std::size_t n_options) const;

  /// Prices the book across the cluster. An empty book returns an empty
  /// run. Throws cdsflow::Error when a worker rejects a shard or every
  /// node is lost with shards outstanding; the coordinator stays usable,
  /// with a lost node still in the plan. Single-caller: each node has one
  /// socket, so at most one price() call may run on a coordinator at a time.
  ClusterRun price(std::span<const cds::CdsOption> options);

 private:
  CoordinatorConfig config_;
  std::vector<net::Client> clients_;
  std::vector<engine::ClusterNode> nodes_;
  /// One lane per node, lane 0 the caller. Declared after the clients its
  /// workers use, so it joins them first.
  runtime::ShardRunner runner_;
};

}  // namespace cdsflow::cluster
