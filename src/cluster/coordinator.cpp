#include "cluster/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "net/codec.hpp"
#include "runtime/shard.hpp"

namespace cdsflow::cluster {
namespace {

constexpr std::uint64_t kProbeTimeoutUs = 10'000'000;

/// A timeout ends up as poll()'s int millisecond count, so it must be
/// finite and at most INT_MAX ms; `positive` also rejects zero.
void expect_timeout(double seconds, bool positive, const std::string& what) {
  constexpr double kMaxMs = std::numeric_limits<int>::max();
  CDSFLOW_EXPECT(std::isfinite(seconds) &&
                     (positive ? seconds > 0.0 : seconds >= 0.0) &&
                     seconds * 1e3 <= kMaxMs,
                 what + " must be finite, " + (positive ? "> 0" : ">= 0") +
                     " and at most " + std::to_string(kMaxMs / 1e3) +
                     " s, got " + std::to_string(seconds));
}

/// Checks the configuration before anything connects.
CoordinatorConfig validated(CoordinatorConfig config) {
  CDSFLOW_EXPECT(!config.nodes.empty(),
                 "cluster coordinator needs at least one node");
  expect_timeout(config.response_timeout_seconds, /*positive=*/true,
                 "cluster response timeout");
  for (const auto& spec : config.nodes) {
    expect_timeout(spec.connect_timeout_seconds, /*positive=*/false,
                   "cluster node '" + spec.label() + "': connect timeout");
  }
  return config;
}

net::Client connect_with_retry(const NodeSpec& spec) {
  // ECONNREFUSED is immediate on loopback, so a worker still starting up
  // needs a retry loop rather than a socket-level timeout.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(spec.connect_timeout_seconds));
  std::string last_error;
  for (;;) {
    try {
      return spec.unix_path.empty()
                 ? net::Client::connect_tcp(spec.host, spec.tcp_port)
                 : net::Client::connect_unix(spec.unix_path);
    } catch (const Error& e) {
      last_error = e.what();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw Error("cluster node '" + spec.label() +
                  "': connect timed out after " +
                  std::to_string(spec.connect_timeout_seconds) +
                  "s: " + last_error);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(CoordinatorConfig config)
    : config_(validated(std::move(config))),
      runner_(static_cast<unsigned>(config_.nodes.size())) {
  clients_.reserve(config_.nodes.size());
  nodes_.reserve(config_.nodes.size());
  for (const auto& spec : config_.nodes) {
    net::Client client = connect_with_retry(spec);

    engine::ClusterNode node;
    node.address = spec.label();
    node.link = spec.link;
    double min_rtt = std::numeric_limits<double>::infinity();
    net::Frame info;
    for (unsigned i = 0; i < std::max(1u, config_.probe_repeats); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      client.send(net::encode_node_probe(i));
      auto reply = client.read_frame_for(kProbeTimeoutUs);
      const auto t1 = std::chrono::steady_clock::now();
      CDSFLOW_EXPECT(reply.has_value(),
                     "cluster node '" + spec.label() + "': probe timed out");
      CDSFLOW_EXPECT(
          reply->type == net::FrameType::kNodeProbe && reply->probe_reply,
          "cluster node '" + spec.label() + "': unexpected probe reply (" +
              net::to_string(reply->type) + ")");
      min_rtt = std::min(
          min_rtt, std::chrono::duration<double>(t1 - t0).count());
      info = std::move(*reply);
    }
    // The wire is structural only; the capability numbers are semantic and
    // validated here.
    CDSFLOW_EXPECT(std::isfinite(info.ops_per_second) &&
                       info.ops_per_second > 0.0,
                   "cluster node '" + spec.label() +
                       "': non-positive reported throughput");
    CDSFLOW_EXPECT(std::isfinite(info.setup_seconds) &&
                       info.setup_seconds >= 0.0,
                   "cluster node '" + spec.label() +
                       "': negative reported setup time");
    CDSFLOW_EXPECT(std::isfinite(info.watts) && info.watts >= 0.0,
                   "cluster node '" + spec.label() +
                       "': negative reported power");
    node.fit.engine_name = info.engine;
    node.fit.options_per_second = info.ops_per_second;
    node.fit.setup_seconds = info.setup_seconds;
    node.fit.watts = info.watts;
    if (spec.measure_latency) {
      node.link.latency_seconds = std::max(1e-9, min_rtt / 2.0);
    }
    clients_.push_back(std::move(client));
    nodes_.push_back(std::move(node));
  }
}

engine::ClusterPlanEntry ClusterCoordinator::plan(
    std::size_t n_options) const {
  engine::BatchRequirements requirements;
  requirements.n_options = n_options;
  requirements.deadline_seconds = config_.deadline_seconds;
  std::vector<std::size_t> sizes;
  if (config_.shard_size != 0) {
    sizes.push_back(config_.shard_size);
  }
  return engine::plan_cluster(nodes_, requirements, config_.risk, sizes)
      .front();
}

ClusterRun ClusterCoordinator::price(
    std::span<const cds::CdsOption> options) {
  ClusterRun out;
  out.n_nodes = nodes_.size();
  if (options.empty()) {
    return out;
  }

  out.plan = plan(options.size());
  out.shard_size = out.plan.shard_size;
  const auto shards = runtime::plan_shards(options.size(), out.shard_size);
  CDSFLOW_ASSERT(shards.size() == out.plan.n_shards,
                 "cluster plan shard count mismatch");

  struct ShardState {
    /// Rows only: results, and sensitivities in risk mode.
    engine::PricingRun rows;
    double engine_seconds = 0.0;
    std::size_t node = 0;
    bool resubmitted = false;
  };
  // Not board-guarded: each slot is owned by exactly one drive task at a
  // time (a shard is handed out under the lock, and an orphaned shard is
  // only re-handed-out after its owner stopped touching the slot), and the
  // merge below reads the slots after every runner lane has returned.
  std::vector<ShardState> done(shards.size());

  // The dispatch board: per-node queues seeded from the plan, plus an
  // orphan queue a dead node's unfinished shards fall back to. A shard
  // counts `remaining` until some node completes it, so a node loss never
  // loses work -- survivors drain the orphans after their own queues.
  struct Board {
    Mutex mu;
    std::condition_variable cv;
    std::vector<std::deque<std::size_t>> queue CDSFLOW_GUARDED_BY(mu);
    std::deque<std::size_t> orphans CDSFLOW_GUARDED_BY(mu);
    std::size_t remaining CDSFLOW_GUARDED_BY(mu) = 0;
    std::size_t live CDSFLOW_GUARDED_BY(mu) = 0;
    std::vector<bool> dead CDSFLOW_GUARDED_BY(mu);
    std::string fatal CDSFLOW_GUARDED_BY(mu);
  } board;
  board.queue.resize(nodes_.size());
  board.dead.assign(nodes_.size(), false);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    board.queue[out.plan.node_of_shard[i]].push_back(i);
  }
  board.remaining = shards.size();
  board.live = nodes_.size();

  const auto response_timeout_us = static_cast<std::uint64_t>(
      config_.response_timeout_seconds * 1e6);

  // The first fatal error aborts the run: every drive task wakes and returns.
  const auto set_fatal = [&board](std::string message) {
    MutexLock lock(board.mu);
    if (board.fatal.empty()) {
      board.fatal = std::move(message);
    }
    board.cv.notify_all();
  };

  auto drive_node = [&](std::size_t k) {
    for (;;) {
      std::size_t idx = 0;
      bool from_orphans = false;
      {
        UniqueLock lock(board.mu);
        board.cv.wait(lock.native(), [&]() CDSFLOW_REQUIRES(board.mu) {
          return !board.fatal.empty() || board.remaining == 0 ||
                 !board.queue[k].empty() || !board.orphans.empty();
        });
        if (!board.fatal.empty() || board.remaining == 0) {
          return;
        }
        if (!board.queue[k].empty()) {
          idx = board.queue[k].front();
          board.queue[k].pop_front();
        } else {
          idx = board.orphans.front();
          board.orphans.pop_front();
          from_orphans = true;
        }
      }

      const auto& shard = shards[idx];
      bool priced = false;
      std::string node_failure;
      std::string fatal;
      try {
        clients_[k].send(net::encode_shard_price(
            static_cast<std::uint32_t>(idx),
            options.subspan(shard.begin, shard.size()), config_.risk));
        auto reply = clients_[k].read_frame_for(response_timeout_us);
        if (!reply.has_value()) {
          node_failure = "shard response timed out";
        } else if (reply->type == net::FrameType::kShardResult) {
          if (reply->request != idx ||
              reply->results.size() != shard.size() ||
              reply->risk != config_.risk) {
            fatal = "cluster node '" + nodes_[k].address +
                    "': shard result does not match its request";
          } else {
            done[idx].rows.results = std::move(reply->results);
            done[idx].rows.sensitivities = std::move(reply->greeks);
            done[idx].engine_seconds = reply->engine_seconds;
            priced = true;
          }
        } else if (reply->type == net::FrameType::kReject) {
          // A reject is a configuration error (wrong mode, bad options) --
          // resubmitting elsewhere would just collect the same answer.
          fatal = "cluster node '" + nodes_[k].address +
                  "' rejected a shard: " + net::to_string(reply->reason) +
                  (reply->detail.empty() ? "" : " (" + reply->detail + ")");
        } else {
          fatal = "cluster node '" + nodes_[k].address +
                  "': unexpected shard reply (" +
                  net::to_string(reply->type) + ")";
        }
      } catch (const Error& e) {
        node_failure = e.what();
      }

      if (!fatal.empty()) {
        set_fatal(std::move(fatal));
        return;
      }
      if (priced) {
        MutexLock lock(board.mu);
        done[idx].node = k;
        done[idx].resubmitted = from_orphans;
        if (--board.remaining == 0) {
          board.cv.notify_all();
        }
        continue;
      }
      // This node is dead for the run: orphan the in-flight shard and the
      // rest of its queue, then let the survivors drain them.
      MutexLock lock(board.mu);
      board.orphans.push_back(idx);
      while (!board.queue[k].empty()) {
        board.orphans.push_back(board.queue[k].front());
        board.queue[k].pop_front();
      }
      board.dead[k] = true;
      --board.live;
      if (board.live == 0 && board.remaining > 0 && board.fatal.empty()) {
        board.fatal = "all cluster nodes lost with shards outstanding "
                      "(last: node '" +
                      nodes_[k].address + "': " + node_failure + ")";
      }
      board.cv.notify_all();
      return;
    }
  };

  // One drive task per node. The runner's lanes, the caller included, are as
  // many as the tasks, and a lane blocks only inside a task it claimed, so
  // no task is left unclaimed behind a blocked one. A task must never leave
  // the board waiting: any exception that escapes the drive body (not only
  // a node failure) becomes the run's fatal error and wakes the other
  // tasks, which then return -- otherwise they would wait on board.cv, and
  // run() on them, forever.
  const auto drive_tasks = runtime::plan_shards(nodes_.size(), 1);
  const auto t0 = std::chrono::steady_clock::now();
  runner_.run(drive_tasks, [&](const runtime::Shard& task, unsigned) {
    try {
      drive_node(task.index);
    } catch (const std::exception& e) {
      set_fatal("cluster node '" + nodes_[task.index].address +
                "': drive task failed: " + e.what());
    } catch (...) {
      set_fatal("cluster node '" + nodes_[task.index].address +
                "': drive task failed");
    }
    return 0.0;
  });
  const auto t1 = std::chrono::steady_clock::now();

  // run() returns once every lane has returned -- the worker lanes through
  // their claim tasks' futures -- which publishes the tasks' final writes,
  // but the board stays locked for these reads anyway: the lock costs
  // nothing then, keeps every board access under its capability, and lets
  // the thread-safety analysis prove the whole dispatch instead of
  // special-casing the tail.
  std::string fatal_message;
  std::size_t shards_remaining = 0;
  std::size_t nodes_dead = 0;
  {
    MutexLock lock(board.mu);
    fatal_message = std::move(board.fatal);
    shards_remaining = board.remaining;
    nodes_dead = static_cast<std::size_t>(
        std::count(board.dead.begin(), board.dead.end(), true));
  }
  if (!fatal_message.empty()) {
    throw Error(fatal_message);
  }
  CDSFLOW_ASSERT(shards_remaining == 0, "cluster dispatch left shards undone");

  // Deterministic merge in shard (= submission) order -- the exact
  // PortfolioRuntime contract, so the merged values are bit-identical to a
  // single-process run of the same engine.
  out.run.results.reserve(options.size());
  out.shards.reserve(shards.size());
  // Each shard booked on the node that priced it: the makespan is the
  // busiest node's engine plus link time.
  runtime::LaneSchedule node_busy(static_cast<unsigned>(nodes_.size()));
  for (const auto& shard : shards) {
    const auto& state = done[shard.index];
    runtime::append_shard_rows(shard, state.rows, out.run);
    const std::uint64_t bytes =
        net::shard_price_frame_bytes(shard.size()) +
        net::shard_result_frame_bytes(shard.size(), config_.risk);
    const double link_seconds =
        nodes_[state.node].link.seconds_for(bytes);
    node_busy.book_on(static_cast<unsigned>(state.node), 0.0,
                      state.engine_seconds + link_seconds);
    out.run.kernel_seconds += state.engine_seconds;
    out.run.transfer_seconds += link_seconds;
    out.run.invocations += 1;
    if (state.resubmitted) {
      ++out.resubmissions;
    }
    out.shards.push_back({shard.index, shard.begin, shard.end, state.node,
                          state.engine_seconds, link_seconds,
                          state.resubmitted});
  }
  out.run.total_seconds = node_busy.makespan();
  CDSFLOW_ASSERT(out.run.total_seconds > 0.0,
                 "merged cluster run must take non-zero time");
  out.run.options_per_second =
      static_cast<double>(options.size()) / out.run.total_seconds;
  out.nodes_lost = nodes_dead;

  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (out.wall_seconds > 0.0) {
    out.wall_options_per_second =
        static_cast<double>(options.size()) / out.wall_seconds;
  }
  return out;
}

}  // namespace cdsflow::cluster
