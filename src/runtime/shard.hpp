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

#include <algorithm>
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

/// The one lane schedule of the planning pipeline: tasks booked one at a time
/// onto `lanes` lanes, each lane free again at the completion of the last
/// task booked on it. Two booking rules share its one lane pick (lowest
/// index on ties):
///
///   - earliest free lane, with arrival times: book() / project() start a
///     task at max(arrival, lane free) on the lane that frees first. With
///     every arrival at 0 this is the runtimes' list schedule
///     (list_schedule_makespan below); with real arrivals it is the
///     service's admission projection (service::AdmissionController).
///   - earliest finish, with per-lane costs: earliest_finish_lane() picks
///     the lane whose free time plus that lane's own cost of the task is
///     least; book_on() then books it there. engine::plan_cluster() uses it
///     for nodes with different fits.
///
/// Times are seconds on an epoch the caller chooses and must not be
/// negative. Purely arithmetic, no clock and no threads; book(), project()
/// and book_on() allocate nothing.
class LaneSchedule {
 public:
  /// `lanes` must be > 0.
  explicit LaneSchedule(unsigned lanes);

  unsigned lanes() const { return static_cast<unsigned>(free_at_.size()); }
  /// When `lane` is free again.
  double free_at(unsigned lane) const { return free_at_[lane]; }

  /// The lane that frees first.
  unsigned earliest_free_lane() const {
    return pick([this](unsigned k) { return free_at_[k]; });
  }
  /// The lane on which a task costing `cost_of(lane)` would finish first.
  template <class CostOf>
  unsigned earliest_finish_lane(CostOf&& cost_of) const {
    return pick([&](unsigned k) { return free_at_[k] + cost_of(k); });
  }

  /// Completion of a task arriving at `arrival_seconds`, were it booked on
  /// the earliest free lane now; commits nothing.
  double project(double arrival_seconds, double task_seconds) const {
    return std::max(arrival_seconds, free_at_[earliest_free_lane()]) +
           task_seconds;
  }
  /// Books the task on the earliest free lane; returns its completion.
  double book(double arrival_seconds, double task_seconds) {
    return book_on(earliest_free_lane(), arrival_seconds, task_seconds);
  }
  /// Books the task on `lane`; returns its completion.
  double book_on(unsigned lane, double arrival_seconds, double task_seconds) {
    free_at_[lane] = std::max(arrival_seconds, free_at_[lane]) + task_seconds;
    return free_at_[lane];
  }

  /// Latest completion booked so far (0 before the first booking).
  double makespan() const {
    return *std::max_element(free_at_.begin(), free_at_.end());
  }

 private:
  /// The lane with the least `key`, lowest index on ties.
  template <class Key>
  unsigned pick(Key&& key) const {
    unsigned best = 0;
    double best_key = key(0u);
    for (unsigned k = 1; k < lanes(); ++k) {
      const double candidate = key(k);
      if (candidate < best_key) {
        best = k;
        best_key = candidate;
      }
    }
    return best;
  }

  std::vector<double> free_at_;
};

/// The runtimes' list schedule: `task_seconds` booked in submission order on
/// the earliest free lane of a LaneSchedule, every task arriving at 0.
/// Returns the makespan; when `lane_of` is non-null it is resized and
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
