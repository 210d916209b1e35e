/// \file cluster.cpp
/// `cluster`: one caller making ClusterCoordinator::price calls on fresh
/// 8,192-option continuous-maturity books, sharded over two in-process
/// ClusterWorker nodes (unix sockets, cpu-vec, 2 lanes each, pinned fits).
/// The only workload that runs src/cluster and the wire-v2 shard frames.

#include <memory>
#include <string>
#include <thread>

#include "cds/batch_pricer.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/worker.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace cluster = cdsflow::cluster;
namespace net = cdsflow::net;
namespace runtime = cdsflow::runtime;

constexpr std::size_t kBook = 8192;
constexpr std::size_t kNodes = 2;
constexpr double kGateRate = 1.0 / 16.0;

/// One worker node: a pinned-fit ClusterWorker behind a net::Server on its
/// own thread.
struct Node {
  std::string path;
  cluster::ClusterWorker worker;
  net::Server server;
  std::thread loop;

  Node(const Market& m, std::size_t index)
      : path(unix_socket_path("c" + std::to_string(index))),
        worker(m.interest, m.hazard, worker_config()),
        server(net::ServerConfig{path}) {
    loop = std::thread([this] { server.run(worker); });
  }
  ~Node() {
    server.stop();
    loop.join();
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  static cluster::WorkerConfig worker_config() {
    cluster::WorkerConfig config;
    config.runtime.engine = "cpu-vec";
    config.runtime.workers = 2;
    config.fit.engine_name = "cpu-vec";
    config.fit.options_per_second = 4e6;
    config.fit.setup_seconds = 1e-4;
    config.fit.watts = 60.0;
    return config;
  }
};

/// The cluster up to ready: both workers listening, the coordinator
/// connected and the probes answered.
struct Cluster {
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;

  explicit Cluster(const Market& m) {
    cluster::CoordinatorConfig config;
    // One probe per node: the plan does not use the measured round trips,
    // and each further probe only adds a thread wake-up to set-up time.
    config.probe_repeats = 1;
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<Node>(m, i));
      cluster::NodeSpec spec;
      spec.unix_path = nodes.back()->path;
      spec.connect_timeout_seconds = 10.0;
      spec.measure_latency = false;  // keeps the plan a function of the fits
      config.nodes.push_back(spec);
    }
    coordinator = std::make_unique<cluster::ClusterCoordinator>(config);
  }
  ~Cluster() { coordinator.reset(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
};

runtime::RuntimeConfig single_lane() {
  runtime::RuntimeConfig config;
  config.engine = "cpu-vec";
  config.workers = 1;
  config.shard_size = kBook;
  return config;
}

}  // namespace

Outcome run_cluster(const Options& opts) {
  const Market m = market(opts.seed);
  Outcome out;
  SetupSampler setup(
      [&] {
        const auto t0 = Clock::now();
        const Cluster c(m);
        return seconds_since(t0);
      },
      0.4);

  Cluster c(m);
  runtime::PortfolioRuntime single(m.interest, m.hazard, single_lane());
  SingleLaneGate gate(single, opts.seed, kGateRate);

  std::uint64_t next = 0;
  const auto make = [&](std::uint64_t i) {
    return continuous_book(opts.seed, Stream::kClusterBooks, i, kBook);
  };
  const auto call = [&](const std::vector<cds::CdsOption>& book) {
    return c.coordinator->price(book);
  };
  std::size_t shards_per_call = 0;

  if (!opts.trace) {
    const Window w = closed_loop(
        opts.seconds, 1000, 50, next, make, call,
        [&](const auto& book, const cluster::ClusterRun& run, std::uint64_t,
            double latency) {
          shards_per_call = run.shards.size();
          gate.check(book, run.run.results, latency);
          setup.tick();
        });
    report_common(w, setup, out);
    out.set("options_per_s", per_second_of_median_op(w, kBook), w.attempted,
            "book options / median call");
    out.set("scenarios_per_s", per_second_of_median_op(w, 1.0), w.attempted,
            "one scenario (the live curves) per call");
  } else {
    const Window plain = closed_loop(opts.seconds / 2, 1000, 50, next, make,
                                     call, [](const auto&...) {});
    SpanLog log;
    const cds::BatchPricer direct(m.interest, m.hazard, cds::simd::active_level());
    cds::BatchPricer::Workspace ws;
    std::vector<cds::SpreadResult> spreads;
    std::vector<double> engine_ms, share, shards, encode, decode, bytes,
        tabulate, combine, grids, dedup;
    double resubmissions = 0.0;
    const Window w = closed_loop(
        opts.seconds, 1000, 0, next, make, call,
        [&](const auto& book, const cluster::ClusterRun& run, std::uint64_t op,
            double latency) {
          const double end = log.now();
          const auto root = log.add("cluster.price", op, -1, {end - latency, end});
          std::vector<double> secs;
          std::vector<unsigned> nodes;
          double engine = 0.0;
          for (const auto& s : run.shards) {
            secs.push_back(s.engine_seconds);
            nodes.push_back(static_cast<unsigned>(s.node));
            engine += s.engine_seconds;
          }
          // Each node answers its shards one at a time: its shard engine
          // times laid back to back; the slowest node bounds the call.
          log.add_lane_children("worker.shard", root, secs, nodes);
          shards.push_back(static_cast<double>(run.shards.size()));
          engine_ms.push_back(engine / static_cast<double>(run.shards.size()));
          share.push_back(engine / (static_cast<double>(run.n_nodes) * latency));
          resubmissions += static_cast<double>(run.resubmissions);

          // Direct calls: the wire frames of this op's shards, and the cds
          // layer on its book.
          double enc = 0.0, dec = 0.0, wire = 0.0;
          for (const auto& s : run.shards) {
            const std::vector<cds::CdsOption> slice(book.begin() + s.begin,
                                                    book.begin() + s.end);
            const std::vector<cds::SpreadResult> rows(
                run.run.results.begin() + s.begin, run.run.results.begin() + s.end);
            const auto e0 = Clock::now();
            const auto request = net::encode_shard_price(
                static_cast<std::uint32_t>(s.index), slice);
            const auto response = net::encode_shard_result(
                static_cast<std::uint32_t>(s.index), s.engine_seconds, rows);
            const auto e1 = Clock::now();
            net::FrameReader reader;
            reader.feed(request.data(), request.size());
            const auto a = reader.next();
            reader.feed(response.data(), response.size());
            const auto b = reader.next();
            const auto e2 = Clock::now();
            out.gate(a.has_value() && b.has_value(), "codec round trip failed");
            enc += seconds_between(e0, e1);
            dec += seconds_between(e1, e2);
            wire += static_cast<double>(net::shard_price_frame_bytes(s.end - s.begin) +
                                        net::shard_result_frame_bytes(s.end - s.begin, false));
          }
          encode.push_back(enc);
          decode.push_back(dec);
          bytes.push_back(wire);
          const CdsSplit split = measure_cds(direct, book, ws, spreads, log, op);
          tabulate.push_back(split.tabulate_s);
          combine.push_back(split.combine_s);
          grids.push_back(static_cast<double>(split.stats.unique_schedules));
          dedup.push_back(dedup_ratio(split.stats));
          gate.check(book, run.run.results, latency);
        });
    out.attempted = w.attempted;
    out.failed = w.failed;
    const std::size_t n = w.attempted - w.failed;
    out.set("cluster.self_ms", median(log.self_seconds_of("cluster.price")) * 1e3, n,
            "median wall minus the slowest node's shard engine time");
    out.set("cluster.engine_share", mean_of(share), n);
    out.set("cluster.resubmissions", resubmissions, n, "total in the window");
    out.set("runtime.shards", mean_of(shards), n, "cluster shards per call");
    out.set("engines.shard_ms", mean_of(engine_ms) * 1e3, n,
            "worker-reported engine time per shard");
    out.set("net.encode_us", mean_of(encode) * 1e6, n,
            "shard-price + shard-result frames per call");
    out.set("net.decode_us", mean_of(decode) * 1e6, n);
    out.set("net.bytes_per_op", mean_of(bytes), n, "computed frame bytes");
    out.set("cds.tabulate_ms", median(tabulate) * 1e3, n);
    out.set("cds.combine_ms", median(combine) * 1e3, n);
    out.set("cds.unique_grids", mean_of(grids), n);
    out.set("cds.dedup_ratio", mean_of(dedup), n);
    out.set("runtime.scaling_eff",
            gate.scaling_eff(2.0 * kNodes), gate.checked(),
            "checked calls vs their single-lane run, 4 lanes");
    out.set("trace.overhead",
            percentile(w.latency_s, 50).value() /
                percentile(plain.latency_s, 50).value(),
            w.latency_s.size(), "traced / untraced latency p50");
    zero_unmeasured_layers(out);
    write_trace(log, opts, out);
  }
  if (shards_per_call != 0) {
    out.info.push_back("plan: " + std::to_string(shards_per_call) +
                       " shards per call over " + std::to_string(kNodes) + " nodes");
  }
  gate.report("cluster", out);
  return out;
}

}  // namespace perfbench
