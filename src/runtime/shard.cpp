#include "runtime/shard.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cdsflow::runtime {

std::vector<Shard> plan_shards(std::size_t n_options, std::size_t shard_size) {
  CDSFLOW_EXPECT(shard_size > 0, "shard_size must be positive");
  std::vector<Shard> plan;
  plan.reserve((n_options + shard_size - 1) / shard_size);
  for (std::size_t begin = 0; begin < n_options; begin += shard_size) {
    plan.push_back({plan.size(), begin, std::min(n_options, begin + shard_size)});
  }
  return plan;
}

std::size_t auto_shard_size(std::size_t n_options, unsigned workers) {
  CDSFLOW_EXPECT(workers > 0, "workers must be positive");
  const std::size_t target_shards =
      static_cast<std::size_t>(workers) * 4;  // oversubscribe for balance
  return std::max<std::size_t>(1, (n_options + target_shards - 1) /
                                      target_shards);
}

std::size_t setup_aware_shard_size(std::size_t n_options, unsigned workers,
                                   double setup_seconds,
                                   double per_option_seconds,
                                   double max_setup_fraction) {
  CDSFLOW_EXPECT(workers > 0, "workers must be positive");
  CDSFLOW_EXPECT(per_option_seconds > 0.0,
                 "per-option cost must be positive");
  CDSFLOW_EXPECT(max_setup_fraction > 0.0,
                 "setup fraction must be positive");
  const std::size_t balanced = auto_shard_size(n_options, workers);
  if (setup_seconds <= 0.0 || n_options == 0) return balanced;
  const std::size_t per_lane = std::max<std::size_t>(
      1, (n_options + workers - 1) / workers);
  // Smallest shard whose setup is <= max_setup_fraction of its compute.
  const double amortised = std::ceil(
      setup_seconds / (max_setup_fraction * per_option_seconds));
  if (amortised >= static_cast<double>(per_lane)) return per_lane;
  return std::min(per_lane,
                  std::max(balanced, std::max<std::size_t>(
                                         1, static_cast<std::size_t>(
                                                amortised))));
}

LaneSchedule::LaneSchedule(unsigned lanes) : free_at_(lanes, 0.0) {
  CDSFLOW_EXPECT(lanes > 0, "lane schedule needs at least one lane");
}

double list_schedule_makespan(std::span<const double> task_seconds,
                              unsigned lanes,
                              std::vector<unsigned>* lane_of) {
  LaneSchedule schedule(lanes);
  if (lane_of != nullptr) {
    lane_of->assign(task_seconds.size(), 0);
  }
  for (std::size_t i = 0; i < task_seconds.size(); ++i) {
    const unsigned lane = schedule.earliest_free_lane();
    if (lane_of != nullptr) (*lane_of)[i] = lane;
    schedule.book_on(lane, 0.0, task_seconds[i]);
  }
  return schedule.makespan();
}

void append_shard_rows(const Shard& shard, const engine::PricingRun& part,
                       engine::PricingRun& merged) {
  CDSFLOW_ASSERT(part.results.size() == shard.size(),
                 "shard result count mismatch");
  merged.results.insert(merged.results.end(), part.results.begin(),
                        part.results.end());
  if (part.sensitivities.empty()) return;
  CDSFLOW_ASSERT(part.sensitivities.size() == shard.size(),
                 "shard sensitivity count mismatch");
  merged.sensitivities.insert(merged.sensitivities.end(),
                              part.sensitivities.begin(),
                              part.sensitivities.end());
  CDSFLOW_ASSERT(part.cs01_ladder.size() == shard.size() * part.ladder_buckets,
                 "shard ladder size mismatch");
  merged.ladder_buckets = part.ladder_buckets;
  merged.cs01_ladder.insert(merged.cs01_ladder.end(), part.cs01_ladder.begin(),
                            part.cs01_ladder.end());
}

}  // namespace cdsflow::runtime
