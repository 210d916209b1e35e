/// \file sweep_runtime.hpp
/// Scenario-axis scaling layer: shard one book's scenario sweep across a
/// pool of SweepPricer replicas.
///
/// The batch runtime shards the *options* axis; the sweep runtime shards
/// the *scenario* axis with the identical recipe, the same ShardRunner
/// (one replica per lane; lane 0 is the calling thread, and a runtime of N
/// lanes keeps N - 1 worker threads from its first run() call until it is
/// destroyed) and the identical
/// determinism contract: shards are contiguous scenario ranges, each range
/// is swept whole by one replica, and per-shard outputs land in disjoint
/// slices of one aggregate array -- submission order by construction,
/// whichever lane finished first. Every replica prices the same book on
/// the same grids at the same kernel level, and SweepPricer's per-scenario
/// values are invariant under scenario grouping (vector_kernel.hpp), so
/// the merged aggregates are bit-identical across worker counts and shard
/// sizes (tested in test_sweep_pricer).
///
/// Modelled vs wall throughput mirrors PortfolioRuntime: modelled is the
/// deterministic list-schedule makespan of measured per-shard seconds over
/// the lanes (meaningful on a 1-core CI box), wall is elapsed host time of
/// the parallel section.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cds/curve.hpp"
#include "cds/sweep_pricer.hpp"
#include "cds/types.hpp"
#include "runtime/shard_runner.hpp"

namespace cdsflow::runtime {

struct SweepRuntimeConfig {
  /// Replica lanes: the calling thread plus workers - 1 threads. 0 selects
  /// hardware_concurrency().
  unsigned workers = 0;
  /// Scenarios per shard. 0 picks auto_shard_size() over the scenario count.
  std::size_t shard_size = 0;
  /// Kernel level of every replica (clamped to the host, like BatchPricer).
  cds::simd::Level level = cds::simd::Level::kScalar;
};

/// Per-shard accounting, in shard (= submission) order.
struct SweepShardOutcome {
  std::size_t index = 0;
  std::size_t begin = 0;  ///< first scenario (inclusive)
  std::size_t end = 0;    ///< one past the last scenario
  double seconds = 0.0;   ///< measured sweep time of this shard
  unsigned lane = 0;      ///< deterministic list-schedule lane
};

struct SweepRun {
  /// Per-scenario aggregates in scenario (= submission) order.
  std::vector<cds::ScenarioAggregate> aggregates;
  /// Shard stats merged in shard order.
  cds::SweepStats stats;
  std::vector<SweepShardOutcome> shards;

  unsigned lanes = 1;
  std::size_t shard_size = 0;

  /// Modelled list-schedule makespan of the per-shard times.
  double modelled_seconds = 0.0;
  double modelled_scenarios_per_second = 0.0;
  /// Measured host wall time of the parallel section.
  double wall_seconds = 0.0;
  double wall_scenarios_per_second = 0.0;
};

class SweepRuntime {
 public:
  /// Builds one SweepPricer replica per lane up front (each replica dedups
  /// the book and tabulates the base grids once -- the sweep's setup cost,
  /// paid per lane exactly like the card pays per engine replica). Throws
  /// cdsflow::Error on an empty book or invalid options.
  SweepRuntime(cds::TermStructure interest, cds::TermStructure hazard,
               std::span<const cds::CdsOption> options,
               SweepRuntimeConfig config = {});

  SweepRuntime(const SweepRuntime&) = delete;
  SweepRuntime& operator=(const SweepRuntime&) = delete;

  /// Sweeps the whole scenario set. An empty set returns an empty run.
  /// Throws the first failing shard's exception (in shard order) once every
  /// shard has returned. Single-caller, like PortfolioRuntime::price().
  SweepRun run(const cds::ScenarioMatrix& scenarios);

  unsigned lanes() const { return runner_.lanes(); }
  const SweepRuntimeConfig& config() const { return config_; }

 private:
  SweepRuntimeConfig config_;
  std::vector<cds::SweepPricer> pricers_;
  /// Declared after the replicas its workers use, so it joins them first.
  ShardRunner runner_;
};

}  // namespace cdsflow::runtime
