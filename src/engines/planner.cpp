#include "engines/planner.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "engines/registry.hpp"
#include "fpga/device.hpp"
#include "net/codec.hpp"
#include "runtime/shard.hpp"
#include "runtime/sweep_runtime.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace cdsflow::engine {

namespace {

/// Through-origin least squares: the pure linear model seconds = n * slope.
double origin_slope(const std::vector<ProbeMeasurement>& probes) {
  double num = 0.0, den = 0.0;
  for (const auto& p : probes) {
    const double n = static_cast<double>(p.n_options);
    num += n * p.seconds;
    den += n * n;
  }
  return num / den;
}

/// Default worker-lane sweep: powers of two up to hardware_concurrency,
/// plus hardware_concurrency itself.
std::vector<unsigned> default_worker_counts() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> counts;
  for (unsigned w = 1; w < hw; w *= 2) counts.push_back(w);
  counts.push_back(hw);
  return counts;
}

void sort_unique(std::vector<std::size_t>& sizes) {
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
}

/// The shard sizes a plan over `lanes` lanes considers, sorted and unique:
/// load-balanced (auto), setup-aware for each fit (amortise that fit's
/// per-shard setup), and one shard per lane (the fewest setup payments that
/// still use every lane).
std::vector<std::size_t> shard_size_candidates(
    std::size_t n, unsigned lanes,
    std::span<const BackendCandidate* const> fits) {
  std::vector<std::size_t> sizes;
  sizes.push_back(runtime::auto_shard_size(n, lanes));
  for (const BackendCandidate* fit : fits) {
    sizes.push_back(runtime::setup_aware_shard_size(
        n, lanes, fit->setup_seconds, fit->per_option_seconds()));
  }
  sizes.push_back(std::max<std::size_t>(1, (n + lanes - 1) / lanes));
  sort_unique(sizes);
  return sizes;
}

/// The one plan ranking: deadline-meeting plans first by projected energy,
/// then the rest by projected time, ties in input order.
template <class Plan>
void rank_plans(std::vector<Plan>& plans) {
  std::stable_sort(plans.begin(), plans.end(),
                   [](const Plan& a, const Plan& b) {
                     if (a.meets_deadline != b.meets_deadline) {
                       return a.meets_deadline;
                     }
                     if (a.meets_deadline) {
                       return a.projected_joules < b.projected_joules;
                     }
                     return a.projected_seconds < b.projected_seconds;
                   });
}

/// The front of a ranked plan list, if it meets the deadline.
template <class Plan>
std::optional<Plan> best_of(const std::vector<Plan>& ranked) {
  if (ranked.empty() || !ranked.front().meets_deadline) {
    return std::nullopt;
  }
  return ranked.front();
}

}  // namespace

PlannerConfig::PlannerConfig() : device(fpga::alveo_u280()) {}

BackendCandidate fit_backend_model(std::string engine_name, double watts,
                                   std::vector<ProbeMeasurement> probes) {
  CDSFLOW_EXPECT(!probes.empty(),
                 "cost-model fit needs at least one probe measurement");
  for (const auto& p : probes) {
    CDSFLOW_EXPECT(p.n_options > 0, "probe measurement with zero options");
    CDSFLOW_EXPECT(p.seconds > 0.0,
                   "probe measurement with non-positive time");
  }

  double mean_n = 0.0, mean_t = 0.0;
  for (const auto& p : probes) {
    mean_n += static_cast<double>(p.n_options);
    mean_t += p.seconds;
  }
  mean_n /= static_cast<double>(probes.size());
  mean_t /= static_cast<double>(probes.size());
  double cov = 0.0, var = 0.0;
  for (const auto& p : probes) {
    const double dn = static_cast<double>(p.n_options) - mean_n;
    cov += dn * (p.seconds - mean_t);
    var += dn * dn;
  }

  double per_option, setup;
  if (var == 0.0) {
    // One distinct probe size: the setup term is unobservable, degrade to
    // the linear model.
    per_option = origin_slope(probes);
    setup = 0.0;
  } else {
    per_option = cov / var;
    setup = mean_t - per_option * mean_n;
    if (per_option <= 0.0 || setup < 0.0) {
      // Measurement noise produced an unphysical fit (bigger probes ran
      // relatively faster, or a negative fixed cost): fall back to linear.
      per_option = origin_slope(probes);
      setup = 0.0;
    }
  }
  CDSFLOW_EXPECT(per_option > 0.0,
                 "candidate '" + engine_name +
                     "' fitted a non-positive per-option cost");

  BackendCandidate candidate;
  candidate.engine_name = std::move(engine_name);
  candidate.watts = watts;
  candidate.options_per_second = 1.0 / per_option;
  candidate.setup_seconds = setup;
  candidate.probes = std::move(probes);
  return candidate;
}

std::vector<std::size_t> checked_probe_sizes(std::vector<std::size_t> sizes) {
  CDSFLOW_EXPECT(!sizes.empty(), "need at least one probe size");
  for (const std::size_t size : sizes) {
    CDSFLOW_EXPECT(size >= 8, "probe workload too small to be representative");
  }
  sort_unique(sizes);
  return sizes;
}

std::vector<cds::CdsOption> probe_book(std::size_t n_options) {
  workload::PortfolioSpec spec;
  spec.count = n_options;
  spec.seed = 20211109;  // fixed: every probe must see identical work
  return workload::make_portfolio(spec);
}

BackendCandidate probe_backend(std::string engine_name, double watts,
                               std::vector<std::size_t> sizes,
                               const std::function<double(std::size_t)>& run,
                               bool deterministic) {
  sizes = checked_probe_sizes(std::move(sizes));
  std::vector<ProbeMeasurement> probes;
  probes.reserve(sizes.size());
  for (const std::size_t size : sizes) {
    double seconds = run(size);  // the one deterministic run, or the warm-up
    if (!deterministic) {
      const double first = run(size);
      seconds = std::min(first, run(size));
    }
    probes.push_back({size, seconds});
  }
  return fit_backend_model(std::move(engine_name), watts, std::move(probes));
}

std::vector<BackendCandidate> enumerate_backends(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const PlannerConfig& config) {
  const std::vector<std::size_t> sizes =
      checked_probe_sizes(config.probe_sizes);
  std::vector<BackendCandidate> candidates;

  // --- CPU candidates -------------------------------------------------------
  // Every CPU candidate is probed on one lane: a CPU engine prices on the
  // calling thread, and plan_runtime() expands the lane count.
  const double cpu_watts = config.cpu_power.watts(1);

  // Scenario-sweep planning: the probe's n axis is the scenario count (one
  // fixed book, varying scenario sets), so the candidate is measured here
  // on a one-lane SweepRuntime and the option-axis candidates below are
  // skipped -- mixing the two axes in one candidate set would compare
  // incomparable workloads. Everything downstream (affine fit,
  // plan_runtime's worker x shard_size expansion) is unchanged: "cpu-sweep"
  // is a CPU name, so it scales with runtime worker lanes exactly like
  // "cpu-vec" does on the option axis.
  if (config.sweep_mode) {
    CDSFLOW_EXPECT(config.sweep_probe_options > 0,
                   "sweep probes need a non-empty book");
    runtime::SweepRuntimeConfig rt_config;
    rt_config.workers = 1;
    rt_config.level = cds::simd::active_level();
    runtime::SweepRuntime sweep_runtime(
        interest, hazard, probe_book(config.sweep_probe_options), rt_config);
    workload::ScenarioSet set;
    candidates.push_back(probe_backend(
        cpu_engine_name(CpuKernel::kSweep, /*risk_mode=*/false), cpu_watts,
        sizes, [&](std::size_t scenarios) {
          if (set.count != scenarios) {
            set = workload::mc_hazard_scenarios(hazard, scenarios);
          }
          return sweep_runtime.run(set.matrix()).wall_seconds;
        }));
    return candidates;
  }

  // Probe books drawn once per size, shared by every candidate.
  std::map<std::size_t, std::vector<cds::CdsOption>> books;
  for (const std::size_t size : sizes) books.emplace(size, probe_book(size));
  const auto probe_candidate = [&](const std::string& name, double watts,
                                   bool simulated) {
    auto engine = make_engine(name, interest, hazard, {}, config.cpu);
    // Simulated engines report deterministic modelled device time, native
    // CPU engines the time they spent pricing.
    candidates.push_back(probe_backend(
        name, watts, sizes,
        [&](std::size_t size) {
          return engine->price(books.at(size)).total_seconds;
        },
        /*deterministic=*/simulated));
  };

  probe_candidate(cpu_engine_name(CpuKernel::kReference, config.risk_mode),
                  cpu_watts, /*simulated=*/false);
  if (config.probe_cpu_batch) {
    probe_candidate(cpu_engine_name(CpuKernel::kBatch, config.risk_mode),
                    cpu_watts, /*simulated=*/false);
  }
  if (config.probe_cpu_vec &&
      cpu_kernel_level(CpuKernel::kVec) != cds::simd::Level::kScalar) {
    probe_candidate(cpu_engine_name(CpuKernel::kVec, config.risk_mode),
                    cpu_watts, /*simulated=*/false);
  }

  // --- FPGA candidates (price only: skipped when planning risk) -------------
  if (!config.risk_mode) {
    std::vector<unsigned> engines = config.fpga_engine_counts;
    if (engines.empty()) {
      fpga::EngineShape shape;
      shape.hazard_lanes = shape.interpolation_lanes = 6;
      const fpga::ResourceEstimator estimator(config.device);
      const unsigned max = estimator.max_engines(shape);
      for (unsigned n = 1; n <= max; ++n) engines.push_back(n);
    }
    for (const unsigned n : engines) {
      probe_candidate("multi-" + std::to_string(n),
                      config.fpga_power.watts(n), /*simulated=*/true);
    }
  }
  return candidates;
}

std::vector<RuntimePlanEntry> plan_runtime(
    const std::vector<BackendCandidate>& candidates,
    const BatchRequirements& requirements, const PlannerConfig& config) {
  CDSFLOW_EXPECT(requirements.n_options > 0, "batch must contain options");
  CDSFLOW_EXPECT(requirements.deadline_seconds > 0.0,
                 "deadline must be positive");
  CDSFLOW_EXPECT(!candidates.empty(), "no back-end candidates supplied");

  const std::size_t n = static_cast<std::size_t>(requirements.n_options);
  const std::vector<unsigned> worker_sweep =
      config.worker_counts.empty() ? default_worker_counts()
                                   : config.worker_counts;
  for (const unsigned w : worker_sweep) {
    CDSFLOW_EXPECT(w > 0, "worker counts must be positive");
  }

  std::vector<RuntimePlanEntry> entries;
  for (const auto& candidate : candidates) {
    CDSFLOW_EXPECT(candidate.options_per_second > 0.0,
                   "candidate '" + candidate.engine_name +
                       "' has no throughput measurement");
    // CPU candidates scale with runtime worker lanes; multi-N and
    // cluster-MxN are already parallel inside the engine, so replicating
    // them across lanes would double-count cores.
    CpuEngineConfig parsed = config.cpu;
    const bool scales_with_workers =
        parse_cpu_engine_name(candidate.engine_name, parsed);
    const std::vector<unsigned> workers =
        scales_with_workers ? worker_sweep : std::vector<unsigned>{1u};
    const BackendCandidate* fit[] = {&candidate};

    for (const unsigned w : workers) {
      const double watts = (scales_with_workers && w > 1)
                               ? config.cpu_power.watts(w)
                               : candidate.watts;
      for (const std::size_t shard_size : shard_size_candidates(n, w, fit)) {
        const auto shards = runtime::plan_shards(n, shard_size);
        runtime::LaneSchedule lanes(w);
        for (const auto& shard : shards) {
          lanes.book(0.0, candidate.seconds_for(shard.size()));
        }
        const double makespan = lanes.makespan();

        RuntimePlanEntry entry;
        entry.config.engine = candidate.engine_name;
        entry.config.workers = w;
        entry.config.shard_size = shard_size;
        entry.config.cpu = config.cpu;
        entry.candidate = candidate;
        entry.n_shards = shards.size();
        entry.watts = watts;
        entry.projected_seconds = makespan;
        entry.projected_joules = watts * makespan;
        entry.meets_deadline = makespan <= requirements.deadline_seconds;
        entries.push_back(std::move(entry));
      }
    }
  }
  rank_plans(entries);
  return entries;
}

std::vector<RuntimePlanEntry> plan_runtime(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const BatchRequirements& requirements, const PlannerConfig& config) {
  return plan_runtime(enumerate_backends(interest, hazard, config),
                      requirements, config);
}

std::optional<RuntimePlanEntry> best_runtime_plan(
    const std::vector<RuntimePlanEntry>& entries) {
  return best_of(entries);
}

double cluster_shard_seconds(const ClusterNode& node, std::size_t n_options,
                             bool risk) {
  const std::uint64_t bytes = net::shard_price_frame_bytes(n_options) +
                              net::shard_result_frame_bytes(n_options, risk);
  return node.fit.seconds_for(n_options) + node.link.seconds_for(bytes);
}

std::vector<ClusterPlanEntry> plan_cluster(
    const std::vector<ClusterNode>& nodes,
    const BatchRequirements& requirements, bool risk_mode,
    std::vector<std::size_t> shard_sizes) {
  CDSFLOW_EXPECT(!nodes.empty(), "cluster plan needs at least one node");
  CDSFLOW_EXPECT(requirements.n_options > 0,
                 "cluster plan needs a non-empty batch");
  CDSFLOW_EXPECT(requirements.deadline_seconds > 0.0,
                 "cluster plan needs a positive deadline");
  for (const auto& node : nodes) {
    CDSFLOW_EXPECT(node.fit.options_per_second > 0.0,
                   "cluster node '" + node.address +
                       "' has no throughput fit");
  }

  const std::size_t n = requirements.n_options;
  const unsigned lanes = static_cast<unsigned>(nodes.size());
  if (shard_sizes.empty()) {
    // Each node amortises its *own* setup.
    std::vector<const BackendCandidate*> fits;
    for (const auto& node : nodes) fits.push_back(&node.fit);
    shard_sizes = shard_size_candidates(n, lanes, fits);
  }
  // A shard must fit in one wire frame.
  for (std::size_t& size : shard_sizes) {
    size = std::clamp<std::size_t>(size, 1, net::kMaxOptionsPerRequest);
  }
  sort_unique(shard_sizes);

  std::vector<ClusterPlanEntry> entries;
  for (const std::size_t shard_size : shard_sizes) {
    const auto shards = runtime::plan_shards(n, shard_size);
    ClusterPlanEntry entry;
    entry.shard_size = shard_size;
    entry.n_shards = shards.size();
    entry.node_of_shard.reserve(shards.size());
    entry.shards_per_node.assign(nodes.size(), 0);
    // Shards in submission order, each on the node where it would finish
    // first.
    runtime::LaneSchedule schedule(lanes);
    for (const auto& shard : shards) {
      const auto cost = [&](unsigned k) {
        return cluster_shard_seconds(nodes[k], shard.size(), risk_mode);
      };
      const unsigned k = schedule.earliest_finish_lane(cost);
      const double start = schedule.free_at(k);
      const double finish = schedule.book_on(k, 0.0, cost(k));
      entry.projected_joules += nodes[k].fit.watts * (finish - start);
      entry.node_of_shard.push_back(k);
      ++entry.shards_per_node[k];
    }
    entry.projected_seconds = schedule.makespan();
    entry.meets_deadline =
        entry.projected_seconds <= requirements.deadline_seconds;
    entries.push_back(std::move(entry));
  }
  rank_plans(entries);
  return entries;
}

std::optional<ClusterPlanEntry> best_cluster_plan(
    const std::vector<ClusterPlanEntry>& entries) {
  return best_of(entries);
}

}  // namespace cdsflow::engine
