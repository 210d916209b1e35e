/// \file portfolio_runtime.hpp
/// Host-side scaling layer: shard a large portfolio across a pool of engine
/// instances and price the shards concurrently.
///
/// The paper scales throughput by replicating the dataflow engine and
/// running several concurrently on one card ("splitting the entire set up
/// into N chunks", Sec. IV / Table II). This runtime applies the same recipe
/// on the host: N engine replicas (any registry engine -- cpu, dataflow,
/// vectorised, multi-*, cluster-*), one per lane of a ShardRunner
/// (shard_runner.hpp: replica k belongs to lane k; lane 0 prices on the
/// thread that calls price(), and a runtime of N lanes keeps N - 1 worker
/// threads from its first price() call until it is destroyed), and a
/// deterministic merge of the per-shard PricingRuns back into submission
/// order. Each shard is a subspan of the caller's book, not a copy.
///
/// Determinism guarantee: shards are contiguous slices of the book, each
/// shard is priced whole by one engine replica, and the merge concatenates
/// shard results in shard (= submission) order regardless of which lane
/// finished first. Because options are independent and every replica of a
/// given engine computes identical per-option values, the merged *values*
/// -- spreads, and in risk mode the Sensitivities and CS01-ladder rows --
/// are bit-identical to a single-engine run over the whole book, whatever
/// the lane count or shard size. Only the *timing* fields vary between
/// configurations. (Risk-mode shards carry their sensitivities/ladder next
/// to the spreads; the merge concatenates all three in the same order, so
/// the guarantee extends to the Greeks.)
///
/// Two throughput figures are reported -- modelled vs wall:
///   - modelled: options / makespan of a deterministic list schedule of the
///     engine-reported shard times over the worker lanes. For simulated FPGA
///     engines the shard time is simulated device time, so this is the
///     paper-style metric (Table II with N = workers) and is reproducible on
///     any host, including a single-core CI box.
///   - wall: options / measured host wall time of the whole parallel
///     section. This is real elapsed time and therefore only meaningful
///     when the host actually has the cores to run the lanes concurrently;
///     on an oversubscribed host it degrades while the modelled figure
///     stays put. Benches report both so the two are never conflated.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/engine.hpp"
#include "runtime/shard_runner.hpp"

namespace cdsflow::runtime {

/// The full execution configuration of one batch: engine x workers x
/// shard_size (plus per-engine-family details). Hand-written by callers, or
/// produced whole by the probe-calibrated auto-planner
/// (engine::plan_runtime / best_runtime_plan in engines/planner.hpp) --
/// a planned config plugs into PortfolioRuntime unchanged.
struct RuntimeConfig {
  /// Registry name of the shard worker engine (see engines/registry.hpp).
  std::string engine = "vectorised";
  /// Lanes driving shards, one engine replica each: the calling thread is
  /// lane 0 and every other lane a worker thread. 0 selects
  /// hardware_concurrency().
  unsigned workers = 0;
  /// Options per shard. 0 picks auto_shard_size() (about 4 shards/worker).
  std::size_t shard_size = 0;
  /// Forwarded to make_engine for simulated FPGA workers.
  engine::FpgaEngineConfig fpga;
  /// Forwarded to make_engine for CPU workers.
  engine::CpuEngineConfig cpu;
};

/// Per-shard accounting, in shard (= submission) order.
struct ShardOutcome {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Engine-reported batch time for this shard (kernel + transfer).
  double engine_seconds = 0.0;
  /// Simulated kernel cycles (0 for native CPU workers).
  sim::Cycle kernel_cycles = 0;
  std::uint64_t invocations = 0;
  /// Lane the deterministic list schedule places this shard on.
  unsigned lane = 0;
};

struct RuntimeRun {
  /// Merged run. `results` (and, for risk-mode engines, `sensitivities` and
  /// `cs01_ladder`) are in submission order. `kernel_cycles`,
  /// `kernel_seconds`, `transfer_seconds` and `invocations` are sums over
  /// shards (total work); `total_seconds` is the modelled concurrent
  /// makespan and `options_per_second` the modelled throughput.
  engine::PricingRun run;
  std::vector<ShardOutcome> shards;

  /// Concurrency actually used (the runtime's lane count).
  unsigned lanes = 1;
  std::size_t shard_size = 0;

  /// Measured host wall time of the parallel section.
  double wall_seconds = 0.0;
  double wall_options_per_second = 0.0;
};

class PortfolioRuntime {
 public:
  /// Constructs the engine pool up front (each replica loads the curves at
  /// initialisation, as on the card). Throws cdsflow::Error for unknown
  /// engine names or zero-lane configurations.
  PortfolioRuntime(cds::TermStructure interest, cds::TermStructure hazard,
                   RuntimeConfig config = {});
  ~PortfolioRuntime();

  PortfolioRuntime(const PortfolioRuntime&) = delete;
  PortfolioRuntime& operator=(const PortfolioRuntime&) = delete;

  /// Prices the book. An empty book returns an empty run (all metrics 0).
  /// Throws the first failing shard's exception (in shard order) once every
  /// shard of the call has returned; the runtime stays usable afterwards.
  /// Single-caller: the engine replicas belong to this object, so at most
  /// one price() call may run on it at a time.
  RuntimeRun price(std::span<const cds::CdsOption> options);

  unsigned lanes() const { return runner_.lanes(); }
  const RuntimeConfig& config() const { return config_; }
  /// Description of one engine replica, e.g. for reports.
  std::string worker_description() const;

 private:
  RuntimeConfig config_;
  std::vector<std::unique_ptr<engine::Engine>> engines_;
  /// Declared after the replicas its workers use, so it joins them first.
  ShardRunner runner_;
};

}  // namespace cdsflow::runtime
