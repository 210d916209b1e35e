/// \file planner.hpp
/// Probe-calibrated, deadline-aware capacity planning.
///
/// The paper's motivation (Sec. I): banks batch-process financial models
/// "for instance overnight, which must still occur within specific time
/// constraints". Given a book size, a deadline, and the available back-ends
/// (CPU kernels, 1..max FPGA engines), the planner measures each candidate,
/// discards those that miss the deadline, and ranks the rest by energy
/// (power model x runtime) -- the decision a capacity planner actually makes
/// with Table II in hand.
///
/// The planning dataflow is probe -> fit -> project -> rank, and each step
/// has one implementation that every client calls:
///
///   1. *probe*  -- probe_backend() is the one probe protocol: for each
///      probe size (checked_probe_sizes(): non-empty, each >= 8, ascending,
///      de-duplicated) one discarded warm-up run, then the best of two timed
///      runs of the caller's run(size) (first-touch allocation noise
///      otherwise inverts rankings at probe size). Simulated FPGA
///      candidates report deterministic modelled time and run once per
///      size. Every option-axis client prices probe_book(size), one
///      fixed-seed book. Clients: enumerate_backends() (engine-reported
///      time on a warm one-lane engine; in sweep mode SweepRuntime wall
///      time over the scenario axis), service::calibrate_stream_fit() and
///      cluster::ClusterWorker's self-calibration.
///   2. *fit*    -- fit_backend_model() fits an affine cost model
///      seconds(n) = setup_seconds + n / options_per_second per candidate.
///      A single-size linear extrapolation systematically misprojects
///      back-ends with a large fixed setup: the batch kernel's grid dedup +
///      tabulation dominates a 128-option probe yet amortises to nothing at
///      book size (the effect that makes streaming-Greeks engines fast at
///      scale, arXiv:2212.13977). BackendCandidate::seconds_for() is the one
///      per-shard cost formula: plan_runtime(), plan_cluster() and admission
///      control all price a shard through it.
///   3. *project* -- plan_runtime() expands candidates into full
///      runtime::RuntimeConfig plans (engine x workers x shard_size,
///      including auto_shard_size and a setup-aware shard size that avoids
///      paying the batch kernel's setup per tiny shard) and projects each
///      on the runtime's own lane schedule (runtime::LaneSchedule), so the
///      projection prices exactly the schedule the runtime will execute.
///      Its one-lane, one-shard entry is the bare back-end pricing the whole
///      batch. plan_cluster() projects on the same schedule with per-node
///      costs.
///   4. *rank*   -- deadline-meeting plans first (projected energy
///      ascending), then the rest (projected time ascending), in a stable
///      order; the same ranking for runtime and cluster plans.
///      best_runtime_plan() yields the RuntimeConfig to hand directly to
///      runtime::PortfolioRuntime.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "cds/types.hpp"
#include "engines/cpu_engine.hpp"
#include "fpga/power.hpp"
#include "fpga/resource.hpp"
#include "runtime/portfolio_runtime.hpp"

namespace cdsflow::engine {

/// One probe measurement: `n_options` priced in `seconds` (best of the
/// timed runs, or deterministic modelled time for simulated candidates).
struct ProbeMeasurement {
  std::size_t n_options = 0;
  double seconds = 0.0;
};

/// One candidate back-end with its fitted affine cost model.
struct BackendCandidate {
  /// Engine registry name ("cpu-batch", "cpu-vec-risk", "multi-3", ...).
  std::string engine_name;
  /// Modelled electrical power while running.
  double watts = 0.0;
  /// Marginal throughput: options/second once the per-batch setup has
  /// amortised (1 / per-option seconds of the fitted model).
  double options_per_second = 0.0;
  /// Fixed cost paid once per batch (per shard, under the sharded runtime):
  /// grid dedup + tabulation for the batch kernel, transfer setup for the
  /// simulated cards. 0 reproduces the old
  /// linear model, so hand-built candidates stay valid.
  double setup_seconds = 0.0;
  /// The measurements the model was fitted from (empty for hand-built
  /// candidates).
  std::vector<ProbeMeasurement> probes;

  double per_option_seconds() const { return 1.0 / options_per_second; }
  /// Projected time of one batch (one shard) of `n_options` under the
  /// fitted affine model: the one per-shard cost formula of every
  /// projection (plan_runtime, plan_cluster, admission control).
  double seconds_for(std::uint64_t n_options) const {
    return setup_seconds +
           static_cast<double>(n_options) / options_per_second;
  }
  double joules_for(std::uint64_t n_options) const {
    return watts * seconds_for(n_options);
  }
};

/// Fits the affine cost model seconds(n) = setup + n * per_option over the
/// probe measurements (least squares; exact through two points). With one
/// distinct probe size the model degrades to linear (setup = 0). Noise
/// guards: a non-positive fitted slope or a negative intercept falls back
/// to the through-origin linear fit. Throws cdsflow::Error on empty probes
/// or non-positive sizes/times.
BackendCandidate fit_backend_model(std::string engine_name, double watts,
                                   std::vector<ProbeMeasurement> probes);

struct BatchRequirements {
  std::uint64_t n_options = 0;
  double deadline_seconds = 0.0;
};

/// Probe sizes as every probe client records them: validated (non-empty,
/// each >= 8 to be representative), sorted ascending and de-duplicated.
/// Throws cdsflow::Error on an empty list or a size below 8.
std::vector<std::size_t> checked_probe_sizes(std::vector<std::size_t> sizes);

/// The one probe book: `n_options` options drawn from one fixed seed, so
/// every candidate and every probe client times identical work.
std::vector<cds::CdsOption> probe_book(std::size_t n_options);

/// The one probe protocol. For each size of checked_probe_sizes(`sizes`),
/// ascending: one discarded warm-up run(size), then the best (minimum) of
/// two timed run(size) calls; or, when `deterministic` (simulated engines
/// reporting modelled time), one run(size). `run` returns the seconds of
/// one run. Then fit_backend_model() over the measurements, which are
/// recorded in ascending size order.
BackendCandidate probe_backend(std::string engine_name, double watts,
                               std::vector<std::size_t> sizes,
                               const std::function<double(std::size_t)>& run,
                               bool deterministic = false);

struct PlannerConfig {
  /// Probe workload sizes (see checked_probe_sizes()). Two or more distinct
  /// sizes calibrate the affine model's setup term; a single size degrades
  /// to the linear model.
  std::vector<std::size_t> probe_sizes = {128, 2048};
  /// Also probe the batched SoA fast-path CPU kernel ("cpu-batch"). Same
  /// power model as the scalar kernel -- the fast path wins on energy purely
  /// by finishing sooner.
  bool probe_cpu_batch = true;
  /// Also probe the SIMD vector kernel ("cpu-vec") -- skipped automatically
  /// when the host resolves to the scalar level (the candidate would just
  /// re-measure cpu-batch under another name). Same power model again: the
  /// planner needs no vector-specific logic, the probe->affine-fit pipeline
  /// prices the lane win by measuring it.
  bool probe_cpu_vec = true;
  /// Probe the CPU candidates in risk mode ("cpu[-batch|-vec]-risk") and
  /// skip the simulated candidates (they only price). Risk details
  /// (bump, ladder edges) ride in `cpu`.
  bool risk_mode = false;
  /// Plan the scenario-sweep workload instead of the batch-pricing one:
  /// enumerate_backends() probes the one "cpu-sweep" candidate only (a
  /// one-lane runtime::SweepRuntime over probe_book(sweep_probe_options),
  /// its wall time at each probe size run through probe_backend()),
  /// and the probe's n axis is the *scenario count* -- probe_sizes,
  /// n_options and every downstream projection then count scenarios, not
  /// options. The same affine fit and the unchanged plan_runtime()
  /// expansion apply: "cpu-sweep" is a CPU name, so the worker x shard_size
  /// sweep enumerates scenario-axis sharding plans with zero sweep-specific
  /// planning logic.
  bool sweep_mode = false;
  /// Book size of the sweep probes. The book is held fixed across the
  /// probe (it is the sweep's amortised setup, the fitted intercept);
  /// only the scenario count varies.
  std::size_t sweep_probe_options = 256;
  /// Forwarded to every CPU candidate (and into the planned RuntimeConfig):
  /// risk bump size, ladder edges. kernel/risk_mode are overridden by each
  /// candidate's registry name.
  CpuEngineConfig cpu;
  /// FPGA engine counts to consider (empty: 1..max that fit the device).
  std::vector<unsigned> fpga_engine_counts;
  /// Worker-lane counts plan_runtime() considers for every CPU candidate
  /// (empty: 1, 2, 4, ... up to hardware_concurrency); a CPU plan's lanes
  /// are its only CPU parallelism. Already-parallel candidates (multi-N,
  /// cluster-MxN) always plan at one lane -- their parallelism lives inside
  /// the engine.
  std::vector<unsigned> worker_counts;
  /// Device for the fit check and the FPGA count default.
  fpga::DeviceSpec device;
  fpga::FpgaPowerModel fpga_power;
  fpga::CpuPowerModel cpu_power;

  PlannerConfig();
};

/// Measures every candidate back-end on probe workloads drawn from the
/// given curves and fits its affine cost model.
std::vector<BackendCandidate> enumerate_backends(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const PlannerConfig& config = {});

/// One fully-specified runtime plan: a RuntimeConfig ready to hand to
/// runtime::PortfolioRuntime, plus the projection it was ranked on.
struct RuntimePlanEntry {
  /// engine x workers x shard_size; `cpu` carries the PlannerConfig's risk
  /// details.
  runtime::RuntimeConfig config;
  /// The per-lane cost model the projection used.
  BackendCandidate candidate;
  /// Shards of config.shard_size covering the batch.
  std::size_t n_shards = 0;
  /// Modelled power of the whole plan (all lanes).
  double watts = 0.0;
  /// Makespan of the per-shard fitted costs (candidate.seconds_for(size))
  /// on config.workers lanes of the runtime's lane schedule -- the same
  /// deterministic schedule PortfolioRuntime reports as its modelled
  /// figure. With one lane and one shard it is candidate.seconds_for(n).
  double projected_seconds = 0.0;
  double projected_joules = 0.0;
  bool meets_deadline = false;
};

/// Expands the candidates into engine x workers x shard_size plans,
/// projects each on a runtime::LaneSchedule over the fitted per-shard costs
/// (plan watts x makespan for energy), and returns the plans sorted:
/// deadline-meeting first (projected energy ascending), then the rest
/// (projected time ascending).
/// Deterministic for fixed candidates and config. Throws cdsflow::Error on
/// an empty candidate set, a zero-option batch, a non-positive deadline, or
/// a candidate without a throughput measurement.
std::vector<RuntimePlanEntry> plan_runtime(
    const std::vector<BackendCandidate>& candidates,
    const BatchRequirements& requirements, const PlannerConfig& config = {});

/// Probe + fit + enumerate + rank in one call: enumerate_backends() then
/// plan_runtime() on the measured candidates.
std::vector<RuntimePlanEntry> plan_runtime(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const BatchRequirements& requirements, const PlannerConfig& config = {});

/// The cheapest runtime plan that meets the deadline, if any. Its `.config`
/// plugs straight into runtime::PortfolioRuntime.
std::optional<RuntimePlanEntry> best_runtime_plan(
    const std::vector<RuntimePlanEntry>& entries);

// --- heterogeneous cluster planning -----------------------------------------
//
// The multi-process analogue of plan_runtime(): one lane per worker node,
// each node with its *own* probe-calibrated affine fit (reported over the
// wire via NODE_PROBE, see docs/PROTOCOL.md), and every shard charged its
// serialized bytes through a link model -- exactly how the paper charges
// PCIe transfer against on-device compute in its ablations. The schedule is
// the in-process runtime's lane schedule (runtime::LaneSchedule) under its
// earliest-finish rule with per-node costs: with identical nodes on a
// zero-cost link it reproduces the runtime's list schedule and
// plan_runtime()'s projection bit for bit (same lowest-index tie-break).
// Full model derivation: docs/CLUSTER.md.

/// Cost of moving one frame across a node's link:
/// seconds(bytes) = latency + bytes / bandwidth.
struct ClusterLinkModel {
  /// One-way message latency (defaults to a loopback-socket figure; the
  /// coordinator overwrites it with a measured probe round trip).
  double latency_seconds = 50e-6;
  double bytes_per_second = 1.0e9;

  double seconds_for(std::uint64_t bytes) const {
    return latency_seconds + static_cast<double>(bytes) / bytes_per_second;
  }
};

/// One worker node as the planner sees it: where it is, how fast it prices
/// (its own affine fit) and what its link costs.
struct ClusterNode {
  std::string address;
  BackendCandidate fit;
  ClusterLinkModel link;
};

/// Modelled cost of one shard of `n_options` on `node`: the node's affine
/// fit (BackendCandidate::seconds_for) plus the link charge for the
/// serialized shard-price request and shard-result response (exact wire
/// sizes from net/codec.hpp).
double cluster_shard_seconds(const ClusterNode& node, std::size_t n_options,
                             bool risk);

/// One candidate cluster execution: a shard size plus the deterministic
/// shard -> node assignment the earliest-finish schedule produces for it.
struct ClusterPlanEntry {
  std::size_t shard_size = 0;
  std::size_t n_shards = 0;
  /// Node index of each shard, in shard (= submission) order.
  std::vector<std::size_t> node_of_shard;
  /// Shard count per node (size = node count).
  std::vector<std::size_t> shards_per_node;
  /// Earliest-finish makespan over the per-node modelled shard costs.
  double projected_seconds = 0.0;
  /// Sum over shards of the assigned node's watts x modelled shard cost
  /// (nodes differ in power, so energy is charged per shard, not as plan
  /// watts x makespan).
  double projected_joules = 0.0;
  bool meets_deadline = false;
};

/// Enumerates shard sizes (auto, per-node setup-aware, one-shard-per-node;
/// or the caller's `shard_sizes`, each clamped to the wire bound
/// net::kMaxOptionsPerRequest), assigns shards to nodes by earliest
/// projected finish (lowest node index on ties), and returns the entries
/// sorted deadline-meeting first (projected energy ascending), then the
/// rest (projected time ascending) -- the plan_runtime() ranking. Throws
/// cdsflow::Error on an empty node set, a node without a throughput fit, a
/// zero-option batch or a non-positive deadline.
std::vector<ClusterPlanEntry> plan_cluster(
    const std::vector<ClusterNode>& nodes,
    const BatchRequirements& requirements, bool risk_mode = false,
    std::vector<std::size_t> shard_sizes = {});

/// The cheapest cluster plan that meets the deadline, if any.
std::optional<ClusterPlanEntry> best_cluster_plan(
    const std::vector<ClusterPlanEntry>& entries);

}  // namespace cdsflow::engine
