/// \file worker.hpp
/// Cluster worker: one process's side of the multi-process scale-out plane.
///
/// A worker is a net::ServerHandler wrapping a local
/// runtime::PortfolioRuntime. The coordinator (coordinator.hpp) probes it
/// with NODE_PROBE -- the worker answers with its lane count and its affine
/// fit (setup + n / options_per_second: pinned, or calibrated at
/// construction by engine::probe_backend, the in-process planner's one
/// probe protocol) -- then streams SHARD_PRICE frames at
/// it; each shard is priced whole by the local runtime and answered with a
/// SHARD_RESULT carrying the rows plus the engine-reported time. Wire
/// format: docs/PROTOCOL.md; topology and merge contract: docs/CLUSTER.md.
///
/// Determinism: the worker prices exactly the options it was sent with the
/// engine it was configured with, so as long as every worker in a cluster
/// runs the same engine name, the coordinator's shard-order merge is
/// bit-identical to a single-process run (the registry determinism
/// guarantee -- thread-count variants never change per-option arithmetic).
///
/// All callbacks run on the server's loop thread, so worker state needs no
/// locks. One shard is in flight per connection at a time on the happy
/// path; pipelined shards are simply answered in order.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "engines/planner.hpp"
#include "net/server.hpp"
#include "runtime/portfolio_runtime.hpp"

namespace cdsflow::cluster {

struct WorkerConfig {
  /// Local runtime the shards are priced on (engine x workers x
  /// shard_size, any registry engine).
  runtime::RuntimeConfig runtime;
  /// Affine fit reported to NODE_PROBE. When options_per_second is 0 the
  /// worker calibrates itself at construction: engine::probe_backend(), the
  /// planner's one probe protocol, times the local runtime's price() of
  /// engine::probe_book(size) at each of `probe_sizes` and fits the affine
  /// model. Pin it (options_per_second > 0) for deterministic tests and
  /// benches.
  engine::BackendCandidate fit;
  std::vector<std::size_t> probe_sizes = {256, 2048};
  /// Stop the server once at least one connection was seen and all are
  /// gone (single-shot launcher scripts).
  bool stop_when_idle = false;
  /// Test-only fault injection: after answering this many shards, drop the
  /// connection instead of answering the next one (simulates a worker
  /// dying mid-shard; 0 disables).
  std::size_t fail_after_shards = 0;
};

struct WorkerStats {
  std::uint64_t probes = 0;
  std::uint64_t shards = 0;
  std::uint64_t options = 0;
  std::uint64_t rejects = 0;
  std::uint64_t connections_poisoned = 0;
  std::uint64_t injected_failures = 0;
};

class ClusterWorker : public net::ServerHandler {
 public:
  /// Builds the local runtime (and, when the fit is not pinned, runs the
  /// calibration probes). Throws cdsflow::Error on unknown engine names.
  ClusterWorker(cds::TermStructure interest, cds::TermStructure hazard,
                WorkerConfig config);

  void on_frame(net::Server& server, int conn, net::Frame frame) override;
  void on_malformed(net::Server& server, int conn,
                    const std::string& error) override;
  void on_tick(net::Server& server) override;
  void on_disconnect(int conn) override;

  const engine::BackendCandidate& fit() const { return fit_; }
  bool risk_mode() const { return risk_mode_; }
  const WorkerStats& stats() const { return stats_; }

 private:
  WorkerConfig config_;
  /// Loop-thread-confined, not lock-guarded: every callback runs on the
  /// worker's single net::Server poll loop, and the stats are read after
  /// serve() returned. The runtime's lane pool carries the real
  /// capabilities; see docs/CONCURRENCY.md.
  runtime::PortfolioRuntime runtime_;
  engine::BackendCandidate fit_;
  bool risk_mode_ = false;
  bool saw_connection_ = false;
  WorkerStats stats_;
};

}  // namespace cdsflow::cluster
