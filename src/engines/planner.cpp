#include "engines/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// Warmup + best-of-N probe timing for natively executed engines. A single
/// cold run folds first-touch allocation noise into the measurement, which
/// can invert the cpu vs cpu-batch ranking at probe size.
double measure_probe_seconds(Engine& engine,
                             const std::vector<cds::CdsOption>& probe,
                             unsigned warmup_runs, unsigned timed_runs) {
  for (unsigned i = 0; i < warmup_runs; ++i) {
    (void)engine.price(probe);  // discarded
  }
  double best = std::numeric_limits<double>::infinity();
  for (unsigned i = 0; i < std::max(1u, timed_runs); ++i) {
    best = std::min(best, engine.price(probe).total_seconds);
  }
  return best;
}

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

std::vector<BackendCandidate> enumerate_backends(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const PlannerConfig& config) {
  CDSFLOW_EXPECT(!config.probe_sizes.empty(),
                 "need at least one probe size");
  for (const std::size_t size : config.probe_sizes) {
    CDSFLOW_EXPECT(size >= 8,
                   "probe workload too small to be representative");
  }

  // Probe books drawn once per size, shared by every candidate.
  std::vector<std::size_t> sizes = config.probe_sizes;
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  std::vector<std::vector<cds::CdsOption>> probe_books;
  probe_books.reserve(sizes.size());
  for (const std::size_t size : sizes) {
    workload::PortfolioSpec probe_spec;
    probe_spec.count = size;
    probe_spec.seed = 20211109;  // fixed: candidates must see identical work
    probe_books.push_back(workload::make_portfolio(probe_spec));
  }

  std::vector<BackendCandidate> candidates;
  const auto probe_candidate = [&](const std::string& name, double watts,
                                   bool simulated) {
    auto engine = make_engine(name, interest, hazard, {}, config.cpu);
    std::vector<ProbeMeasurement> measurements;
    measurements.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      // Simulated engines report deterministic modelled device time, so one
      // run per size suffices; native CPU engines are wall-clock timed and
      // get the warmup + best-of-N protocol.
      const double seconds =
          simulated ? engine->price(probe_books[i]).total_seconds
                    : measure_probe_seconds(*engine, probe_books[i],
                                            config.probe_warmup_runs,
                                            config.probe_repeats);
      measurements.push_back({sizes[i], seconds});
    }
    candidates.push_back(
        fit_backend_model(name, watts, std::move(measurements)));
  };

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
    workload::PortfolioSpec book_spec;
    book_spec.count = config.sweep_probe_options;
    book_spec.seed = 20211109;  // fixed: candidates must see identical work
    const auto book = workload::make_portfolio(book_spec);
    std::vector<workload::ScenarioSet> probe_sets;
    probe_sets.reserve(sizes.size());
    for (const std::size_t size : sizes) {
      probe_sets.push_back(workload::mc_hazard_scenarios(hazard, size));
    }
    runtime::SweepRuntimeConfig rt_config;
    rt_config.workers = 1;
    rt_config.level = cds::simd::active_level();
    runtime::SweepRuntime sweep_runtime(interest, hazard, book, rt_config);
    std::vector<ProbeMeasurement> measurements;
    measurements.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const cds::ScenarioMatrix matrix = probe_sets[i].matrix();
      for (unsigned w = 0; w < config.probe_warmup_runs; ++w) {
        (void)sweep_runtime.run(matrix);  // discarded
      }
      double best = std::numeric_limits<double>::infinity();
      for (unsigned r = 0; r < std::max(1u, config.probe_repeats); ++r) {
        best = std::min(best, sweep_runtime.run(matrix).wall_seconds);
      }
      measurements.push_back({sizes[i], best});
    }
    candidates.push_back(fit_backend_model(
        cpu_engine_name(CpuKernel::kSweep, /*risk_mode=*/false), cpu_watts,
        std::move(measurements)));
    return candidates;
  }

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

std::vector<PlanEntry> plan_batch(
    const std::vector<BackendCandidate>& candidates,
    const BatchRequirements& requirements) {
  CDSFLOW_EXPECT(requirements.n_options > 0, "batch must contain options");
  CDSFLOW_EXPECT(requirements.deadline_seconds > 0.0,
                 "deadline must be positive");
  CDSFLOW_EXPECT(!candidates.empty(), "no back-end candidates supplied");

  std::vector<PlanEntry> entries;
  entries.reserve(candidates.size());
  for (const auto& candidate : candidates) {
    CDSFLOW_EXPECT(candidate.options_per_second > 0.0,
                   "candidate '" + candidate.engine_name +
                       "' has no throughput measurement");
    PlanEntry entry;
    entry.candidate = candidate;
    entry.projected_seconds = candidate.seconds_for(requirements.n_options);
    entry.projected_joules = candidate.joules_for(requirements.n_options);
    entry.meets_deadline =
        entry.projected_seconds <= requirements.deadline_seconds;
    entries.push_back(entry);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const PlanEntry& a, const PlanEntry& b) {
                     if (a.meets_deadline != b.meets_deadline) {
                       return a.meets_deadline;
                     }
                     if (a.meets_deadline) {
                       return a.projected_joules < b.projected_joules;
                     }
                     return a.projected_seconds < b.projected_seconds;
                   });
  return entries;
}

std::optional<PlanEntry> best_plan(const std::vector<PlanEntry>& entries) {
  if (entries.empty() || !entries.front().meets_deadline) {
    return std::nullopt;
  }
  return entries.front();
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

    for (const unsigned w : workers) {
      const double watts = (scales_with_workers && w > 1)
                               ? config.cpu_power.watts(w)
                               : candidate.watts;
      // Shard-size candidates: load-balanced (auto), setup-aware (amortise
      // the per-shard setup), and one-shard-per-lane (fewest setup
      // payments that still uses every lane).
      std::vector<std::size_t> shard_sizes;
      shard_sizes.push_back(runtime::auto_shard_size(n, w));
      shard_sizes.push_back(runtime::setup_aware_shard_size(
          n, w, candidate.setup_seconds, candidate.per_option_seconds(),
          config.max_setup_fraction));
      shard_sizes.push_back(std::max<std::size_t>(1, (n + w - 1) / w));
      std::sort(shard_sizes.begin(), shard_sizes.end());
      shard_sizes.erase(std::unique(shard_sizes.begin(), shard_sizes.end()),
                        shard_sizes.end());

      for (const std::size_t shard_size : shard_sizes) {
        const auto shards = runtime::plan_shards(n, shard_size);
        std::vector<double> shard_seconds;
        shard_seconds.reserve(shards.size());
        for (const auto& shard : shards) {
          shard_seconds.push_back(candidate.setup_seconds +
                                  static_cast<double>(shard.size()) *
                                      candidate.per_option_seconds());
        }
        const double makespan =
            runtime::list_schedule_makespan(shard_seconds, w);

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

  std::stable_sort(entries.begin(), entries.end(),
                   [](const RuntimePlanEntry& a, const RuntimePlanEntry& b) {
                     if (a.meets_deadline != b.meets_deadline) {
                       return a.meets_deadline;
                     }
                     if (a.meets_deadline) {
                       return a.projected_joules < b.projected_joules;
                     }
                     return a.projected_seconds < b.projected_seconds;
                   });
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
  if (entries.empty() || !entries.front().meets_deadline) {
    return std::nullopt;
  }
  return entries.front();
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
    // Same shard-size candidates as plan_runtime(), but the setup-aware
    // size is computed per node: each node amortises its *own* setup.
    shard_sizes.push_back(runtime::auto_shard_size(n, lanes));
    for (const auto& node : nodes) {
      shard_sizes.push_back(runtime::setup_aware_shard_size(
          n, lanes, node.fit.setup_seconds, node.fit.per_option_seconds()));
    }
    shard_sizes.push_back(
        std::max<std::size_t>(1, (n + nodes.size() - 1) / nodes.size()));
  }
  // A shard must fit in one wire frame.
  for (std::size_t& size : shard_sizes) {
    size = std::clamp<std::size_t>(size, 1, net::kMaxOptionsPerRequest);
  }
  std::sort(shard_sizes.begin(), shard_sizes.end());
  shard_sizes.erase(std::unique(shard_sizes.begin(), shard_sizes.end()),
                    shard_sizes.end());

  std::vector<ClusterPlanEntry> entries;
  for (const std::size_t shard_size : shard_sizes) {
    const auto shards = runtime::plan_shards(n, shard_size);
    ClusterPlanEntry entry;
    entry.shard_size = shard_size;
    entry.n_shards = shards.size();
    entry.node_of_shard.reserve(shards.size());
    entry.shards_per_node.assign(nodes.size(), 0);
    // Earliest projected finish, shards in submission order, lowest node
    // index on ties -- list_schedule_makespan generalised to per-lane
    // costs (identical nodes reproduce it exactly).
    std::vector<double> free_at(nodes.size(), 0.0);
    for (const auto& shard : shards) {
      std::size_t best = 0;
      double best_finish = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const double finish =
            free_at[k] + cluster_shard_seconds(nodes[k], shard.size(),
                                               risk_mode);
        if (finish < best_finish) {
          best = k;
          best_finish = finish;
        }
      }
      entry.projected_joules +=
          nodes[best].fit.watts * (best_finish - free_at[best]);
      free_at[best] = best_finish;
      entry.node_of_shard.push_back(best);
      ++entry.shards_per_node[best];
    }
    entry.projected_seconds =
        *std::max_element(free_at.begin(), free_at.end());
    entry.meets_deadline =
        entry.projected_seconds <= requirements.deadline_seconds;
    entries.push_back(std::move(entry));
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const ClusterPlanEntry& a, const ClusterPlanEntry& b) {
                     if (a.meets_deadline != b.meets_deadline) {
                       return a.meets_deadline;
                     }
                     if (a.meets_deadline) {
                       return a.projected_joules < b.projected_joules;
                     }
                     return a.projected_seconds < b.projected_seconds;
                   });
  return entries;
}

std::optional<ClusterPlanEntry> best_cluster_plan(
    const std::vector<ClusterPlanEntry>& entries) {
  if (entries.empty() || !entries.front().meets_deadline) {
    return std::nullopt;
  }
  return entries.front();
}

}  // namespace cdsflow::engine
