/// \file shard.hpp
/// Portfolio sharding: cut a batch of options into contiguous, fixed-size
/// chunks for concurrent pricing.
///
/// "There are no dependencies between calculations involving different
/// options" (paper Sec. IV) -- so the decomposition is a plain contiguous
/// partition in submission order. Contiguity is what makes the merge
/// deterministic: concatenating per-shard results in shard order restores
/// the submission order exactly, whichever worker priced which shard.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "engines/engine.hpp"

namespace cdsflow::runtime {

/// One contiguous slice [begin, end) of the submitted portfolio.
struct Shard {
  std::size_t index = 0;  ///< Position in the plan (merge key).
  std::size_t begin = 0;  ///< First option (inclusive).
  std::size_t end = 0;    ///< One past the last option.

  std::size_t size() const { return end - begin; }
};

/// Cuts `n_options` into shards of `shard_size` (the final shard carries the
/// remainder). `shard_size` must be > 0. Returns an empty plan for an empty
/// portfolio.
std::vector<Shard> plan_shards(std::size_t n_options, std::size_t shard_size);

/// Default shard size for a portfolio priced by `workers` concurrent engine
/// lanes: enough shards per lane that list scheduling balances the load
/// (about 4x oversubscription), never smaller than one option.
std::size_t auto_shard_size(std::size_t n_options, unsigned workers);

/// Shard size for an engine that pays a fixed `setup_seconds` per shard
/// (e.g. the batch kernel's grid dedup + tabulation): grows shards beyond
/// auto_shard_size() until the per-shard setup is at most
/// `max_setup_fraction` of the shard's per-option compute, capped at one
/// shard per lane so every lane still gets work. With no setup cost this is
/// exactly auto_shard_size(). `workers`, `per_option_seconds` and
/// `max_setup_fraction` must be positive.
std::size_t setup_aware_shard_size(std::size_t n_options, unsigned workers,
                                   double setup_seconds,
                                   double per_option_seconds,
                                   double max_setup_fraction = 0.1);

/// Deterministic list schedule of `task_seconds` (tasks in submission order)
/// onto `lanes` identical lanes: each task is placed on the earliest-free
/// lane. Returns the makespan; when `lane_of` is non-null it is resized and
/// receives the per-task lane assignment. The single home of the modelled
/// concurrent-throughput figure both runtimes report (shards for the batch
/// runtime, micro-batches for the streaming runtime). `lanes` must be > 0.
double list_schedule_makespan(std::span<const double> task_seconds,
                              unsigned lanes,
                              std::vector<unsigned>* lane_of = nullptr);

/// Appends `part`, the run of `shard`, to `merged`: its spreads and, when it
/// carries them, its sensitivities and CS01-ladder rows. Asserts one row per
/// option of the shard. Called in shard order, this is the deterministic
/// merge of both the batch runtime and the cluster coordinator.
void append_shard_rows(const Shard& shard, const engine::PricingRun& part,
                       engine::PricingRun& merged);

}  // namespace cdsflow::runtime
