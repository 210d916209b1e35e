#include "cluster/worker.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "engines/registry.hpp"
#include "fpga/power.hpp"

namespace cdsflow::cluster {
namespace {

/// Risk mode of a registry engine name: the CPU grammar's -risk token
/// (simulated FPGA engines only price).
bool engine_risk_mode(const std::string& name,
                      const engine::CpuEngineConfig& base) {
  engine::CpuEngineConfig parsed = base;
  if (engine::parse_cpu_engine_name(name, parsed)) {
    return parsed.risk_mode;
  }
  return false;
}

}  // namespace

ClusterWorker::ClusterWorker(cds::TermStructure interest,
                             cds::TermStructure hazard, WorkerConfig config)
    : config_(std::move(config)),
      runtime_(std::move(interest), std::move(hazard), config_.runtime),
      fit_(config_.fit),
      risk_mode_(engine_risk_mode(config_.runtime.engine,
                                  config_.runtime.cpu)) {
  if (fit_.options_per_second > 0.0) {
    fit_.engine_name = config_.runtime.engine;
    if (fit_.watts <= 0.0) {
      fit_.watts = fpga::CpuPowerModel{}.watts(runtime_.lanes());
    }
    return;  // pinned fit: nothing to calibrate
  }
  // Self-calibration: the planner's probe protocol against the local
  // runtime, so the reported fit prices the exact configuration shards will
  // run on.
  const double watts = config_.fit.watts > 0.0
                           ? config_.fit.watts
                           : fpga::CpuPowerModel{}.watts(runtime_.lanes());
  std::vector<cds::CdsOption> book;
  fit_ = engine::probe_backend(
      config_.runtime.engine, watts, config_.probe_sizes,
      [&](std::size_t size) {
        if (book.size() != size) book = engine::probe_book(size);
        const auto t0 = std::chrono::steady_clock::now();
        (void)runtime_.price(book);
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
      });
}

void ClusterWorker::on_frame(net::Server& server, int conn,
                             net::Frame frame) {
  saw_connection_ = true;
  switch (frame.type) {
    case net::FrameType::kNodeProbe: {
      if (frame.probe_reply) {
        break;  // a reply sent *to* a worker is a protocol violation
      }
      ++stats_.probes;
      server.send(conn, net::encode_node_info(
                            frame.request, runtime_.lanes(),
                            fit_.options_per_second, fit_.setup_seconds,
                            fit_.watts, config_.runtime.engine));
      return;
    }
    case net::FrameType::kShardPrice: {
      if (frame.risk != risk_mode_) {
        ++stats_.rejects;
        server.send(conn,
                    net::encode_reject(
                        0, frame.request, net::RejectReason::kWrongMode,
                        risk_mode_ ? "worker engine runs in risk mode"
                                   : "worker engine runs in price mode"));
        return;
      }
      if (const auto error = net::option_reject_detail(frame.options)) {
        ++stats_.rejects;
        server.send(conn, net::encode_reject(0, frame.request,
                                             net::RejectReason::kMalformed,
                                             *error));
        return;
      }
      if (config_.fail_after_shards > 0 &&
          stats_.shards >= config_.fail_after_shards) {
        // Injected mid-shard death: the coordinator sees the connection
        // drop with this shard outstanding and must resubmit it.
        ++stats_.injected_failures;
        server.close_connection(conn);
        return;
      }
      const auto run = runtime_.price(frame.options);
      ++stats_.shards;
      stats_.options += frame.options.size();
      server.send(conn, net::encode_shard_result(
                            frame.request, run.run.total_seconds,
                            run.run.results, run.run.sensitivities));
      return;
    }
    case net::FrameType::kQuoteUpdate:
    case net::FrameType::kPriceRequest:
    case net::FrameType::kRiskRequest:
    case net::FrameType::kResult:
    case net::FrameType::kReject:
    case net::FrameType::kShardResult:
      break;
  }
  // Anything else at a worker is a protocol violation: reject, then drop
  // the connection (the service does the same for cluster frames).
  ++stats_.rejects;
  server.send(conn, net::encode_reject(
                        0, frame.request, net::RejectReason::kMalformed,
                        std::string("unexpected frame at a cluster worker (") +
                            net::to_string(frame.type) + ")"));
  server.close_connection(conn);
}

void ClusterWorker::on_malformed(net::Server& server, int conn,
                                 const std::string& error) {
  ++stats_.connections_poisoned;
  // Last frame out before the server tears the connection down -- this is
  // how a version-mismatched peer learns it is being rejected.
  server.send(conn, net::encode_reject(0, 0, net::RejectReason::kMalformed,
                                       net::clip_reject_detail(error)));
}

void ClusterWorker::on_tick(net::Server& server) {
  if (config_.stop_when_idle && saw_connection_ &&
      server.connections() == 0) {
    server.stop();
  }
}

void ClusterWorker::on_disconnect(int /*conn*/) { saw_connection_ = true; }

}  // namespace cdsflow::cluster
