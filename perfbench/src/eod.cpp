/// \file eod.cpp
/// `eod`: repeated end-of-day batch jobs from one caller, after the
/// grid-level Greeks workflow of Klaisoongnoen & Brown (arXiv:2212.13977).
/// Each job prices a fresh 65,536-option continuous-maturity book with
/// Greeks and a 6-bucket CS01 ladder (cpu-vec-risk, 4 lanes, 4,096-option
/// shards), then sweeps a fresh 4,096-scenario Monte-Carlo hazard set
/// through SweepRuntime (4 lanes, host SIMD level) over a 4,096-option book
/// bound at set-up. Nearly all time is cds column tabulation on working sets
/// past L2; per-call plumbing is amortised over large shards.

#include <string>

#include "cds/batch_pricer.hpp"
#include "cds/sweep_pricer.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "runtime/shard.hpp"
#include "runtime/sweep_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace runtime = cdsflow::runtime;
namespace workload = cdsflow::workload;

constexpr std::size_t kRiskBook = 65536;
constexpr std::size_t kRiskShard = 4096;
constexpr std::size_t kSweepBook = 4096;
constexpr std::size_t kScenarios = 4096;
constexpr double kGateRate = 1.0 / 16.0;
const std::vector<double> kLadderEdges = {0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0};

// The single-lane references of the gate cut the same shards as the
// measured 4-lane runtimes, so their retained scratch is no larger.
runtime::RuntimeConfig risk_config(unsigned lanes) {
  runtime::RuntimeConfig config;
  config.engine = "cpu-vec-risk";
  config.workers = lanes;
  config.shard_size = kRiskShard;
  config.cpu.ladder_edges = kLadderEdges;
  return config;
}

runtime::SweepRuntimeConfig sweep_config(unsigned lanes) {
  runtime::SweepRuntimeConfig config;
  config.workers = lanes;
  // 0 lets the 4-lane runtime pick its shard size.
  config.shard_size = lanes == 1 ? runtime::auto_shard_size(kScenarios, 4) : 0;
  config.level = cds::simd::active_level();
  return config;
}

struct Job {
  std::vector<cds::CdsOption> book;
  workload::ScenarioSet scenarios;
};

struct JobRun {
  runtime::RuntimeRun risk;
  runtime::SweepRun sweep;
  double risk_s = 0.0;
  double sweep_s = 0.0;
};

}  // namespace

Outcome run_eod(const Options& opts) {
  const Market m = market(opts.seed);
  const auto sweep_book =
      continuous_book(opts.seed, Stream::kEodBooks, 0, kSweepBook);
  Outcome out;
  SetupSampler setup(
      [&] {
        const auto t0 = Clock::now();
        const runtime::PortfolioRuntime risk(m.interest, m.hazard,
                                             risk_config(4));
        const runtime::SweepRuntime sweep(m.interest, m.hazard, sweep_book,
                                          sweep_config(4));
        return seconds_since(t0);
      },
      1.0);  // each construction takes tens of milliseconds

  runtime::PortfolioRuntime risk(m.interest, m.hazard, risk_config(4));
  runtime::SweepRuntime sweep(m.interest, m.hazard, sweep_book, sweep_config(4));
  runtime::PortfolioRuntime risk_single(m.interest, m.hazard, risk_config(1));
  runtime::SweepRuntime sweep_single(m.interest, m.hazard, sweep_book,
                                     sweep_config(1));
  GateSample sample(opts.seed, kGateRate);
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::vector<double> ref_seconds, par_seconds;

  std::uint64_t next = 0;
  const auto make = [&](std::uint64_t job) {
    return Job{continuous_book(opts.seed, Stream::kEodBooks, job + 1, kRiskBook),
               eod_scenarios(m.hazard, opts.seed, job, kScenarios)};
  };
  const auto call = [&](const Job& job) {
    JobRun r;
    auto t0 = Clock::now();
    r.risk = risk.price(job.book);
    r.risk_s = seconds_since(t0);
    t0 = Clock::now();
    r.sweep = sweep.run(job.scenarios.matrix());
    r.sweep_s = seconds_since(t0);
    return r;
  };
  // Phase times of every job; throughput is per median phase, which keeps
  // host stalls from swinging the figure between runs.
  std::vector<double> risk_s, sweep_s;
  const auto account = [&](const JobRun& r) {
    risk_s.push_back(r.risk_s);
    sweep_s.push_back(r.sweep_s);
  };
  const auto options_per_s = [&] { return kRiskBook / median(risk_s); };
  const auto gate = [&](const Job& job, const JobRun& r) {
    if (checked != 0 && !sample.pick()) return;
    ++checked;
    auto t0 = Clock::now();
    const auto ref_risk = risk_single.price(job.book);
    const auto ref_sweep = sweep_single.run(job.scenarios.matrix());
    ref_seconds.push_back(seconds_since(t0));
    par_seconds.push_back(r.risk_s + r.sweep_s);
    bool same = same_spreads(r.risk.run.results, ref_risk.run.results) &&
                same_greeks(r.risk.run.sensitivities, ref_risk.run.sensitivities) &&
                same_values(r.risk.run.cs01_ladder, ref_risk.run.cs01_ladder) &&
                r.risk.run.ladder_buckets == 6 &&
                r.sweep.aggregates.size() == ref_sweep.aggregates.size();
    for (std::size_t s = 0; same && s < r.sweep.aggregates.size(); ++s) {
      same = same_bits(r.sweep.aggregates[s].min_spread_bps,
                       ref_sweep.aggregates[s].min_spread_bps) &&
             same_bits(r.sweep.aggregates[s].max_spread_bps,
                       ref_sweep.aggregates[s].max_spread_bps);
    }
    if (!same) ++mismatched;
  };

  if (!opts.trace) {
    const Window w = closed_loop(
        opts.seconds, 24, 2, next, make, call,
        [&](const Job& job, const JobRun& r, std::uint64_t, double) {
          account(r);
          gate(job, r);
          setup.tick();
        });
    report_common(w, setup, out);
    out.set("options_per_s", options_per_s(), risk_s.size(),
            "risk phase: options with Greeks and ladder / median phase");
    out.set("scenarios_per_s", kScenarios / median(sweep_s), sweep_s.size(),
            "sweep phase: scenarios / median phase");
  } else {
    closed_loop(opts.seconds / 2, 12, 2, next, make, call,
                [&](const Job&, const JobRun& r, std::uint64_t, double) {
                  account(r);
                });
    const double plain_options_per_s = options_per_s();
    risk_s.clear();
    sweep_s.clear();

    SpanLog log;
    const cds::BatchPricer direct(m.interest, m.hazard, cds::simd::active_level());
    cds::BatchPricer::Workspace ws;
    cds::BatchPricer::RiskWorkspace risk_ws;
    cds::BatchRiskConfig risk_cfg;
    risk_cfg.ladder_edges = kLadderEdges;
    cds::SweepPricer direct_sweep(m.interest, m.hazard, sweep_book,
                                  cds::simd::active_level());
    std::vector<cds::SpreadResult> spreads;
    std::vector<cds::Sensitivities> greeks(kRiskShard);
    std::vector<double> ladder(kRiskShard * 6);
    std::vector<cds::ScenarioAggregate> aggregates(kScenarios);
    std::vector<double> modelled, shards, lane_busy, shard_ms, tabulate,
        combine, risk_ms, sweep_ms, grids, dedup, shared_rate;
    const Window w = closed_loop(
        opts.seconds, 12, 0, next, make, call,
        [&](const Job& job, const JobRun& r, std::uint64_t op, double latency) {
          account(r);
          const double end = log.now();
          const auto root = log.add("eod.job", op, -1, {end - latency, end});
          const double risk_begin = end - latency;
          const auto risk_span = log.add("runtime.price", op, root,
                                         {risk_begin, risk_begin + r.risk_s});
          std::vector<double> secs;
          std::vector<unsigned> lanes;
          double busy = 0.0;
          for (const auto& s : r.risk.shards) {
            secs.push_back(s.engine_seconds);
            lanes.push_back(s.lane);
            busy += s.engine_seconds;
          }
          log.add_lane_children("engine.shard", risk_span, secs, lanes);
          const double sweep_begin = end - r.sweep_s;
          const auto sweep_span =
              log.add("runtime.sweep", op, root, {sweep_begin, end});
          secs.clear();
          lanes.clear();
          for (const auto& s : r.sweep.shards) {
            secs.push_back(s.seconds);
            lanes.push_back(s.lane);
          }
          log.add_lane_children("sweep.shard", sweep_span, secs, lanes);
          modelled.push_back(r.risk.run.total_seconds);
          shards.push_back(static_cast<double>(r.risk.shards.size()));
          lane_busy.push_back(busy / (r.risk.lanes * r.risk_s));
          shard_ms.push_back(busy / static_cast<double>(r.risk.shards.size()));
          shared_rate.push_back(r.sweep.stats.shared_column_rate());

          // Direct calls into the cds layer on the job's own inputs.
          const CdsSplit split = measure_cds(direct, job.book, ws, spreads, log, op);
          tabulate.push_back(split.tabulate_s);
          combine.push_back(split.combine_s);
          grids.push_back(static_cast<double>(split.stats.unique_schedules));
          dedup.push_back(dedup_ratio(split.stats));
          const std::span<const cds::CdsOption> shard(job.book.data(), kRiskShard);
          double d0 = log.now();
          direct.price_with_sensitivities(shard, greeks, ladder, risk_ws, risk_cfg);
          double d1 = log.now();
          log.add("cds.risk_shard", op, -1, {d0, d1});
          risk_ms.push_back(d1 - d0);
          const auto& first = r.sweep.shards.front();
          const std::size_t span_n = first.end - first.begin;
          d0 = log.now();
          direct_sweep.sweep(job.scenarios.matrix(), first.begin, first.end,
                             std::span<cds::ScenarioAggregate>(aggregates)
                                 .subspan(0, span_n));
          d1 = log.now();
          log.add("cds.sweep_shard", op, -1, {d0, d1});
          sweep_ms.push_back(d1 - d0);
          gate(job, r);
        });
    out.attempted = w.attempted;
    out.failed = w.failed;
    const std::size_t n = w.attempted - w.failed;
    out.set("runtime.self_ms", median(log.self_seconds_of("runtime.price")) * 1e3,
            n, "risk call: median wall minus modelled makespan");
    out.set("runtime.sweep_self_ms",
            median(log.self_seconds_of("runtime.sweep")) * 1e3, n,
            "median wall minus shard makespan");
    out.set("runtime.modelled_ms", median(modelled) * 1e3, n);
    out.set("runtime.shards", mean_of(shards), n);
    out.set("runtime.lane_busy", mean_of(lane_busy), n);
    out.set("engines.shard_ms", mean_of(shard_ms) * 1e3, n);
    out.set("cds.tabulate_ms", median(tabulate) * 1e3, n, "65,536-option book");
    out.set("cds.combine_ms", median(combine) * 1e3, n);
    out.set("cds.risk_ms", median(risk_ms) * 1e3, n, "one 4,096-option shard");
    out.set("cds.sweep_ms", median(sweep_ms) * 1e3, n, "one shard's scenarios");
    out.set("cds.unique_grids", mean_of(grids), n);
    out.set("cds.dedup_ratio", mean_of(dedup), n);
    out.set("cds.shared_column_rate", mean_of(shared_rate), n);
    out.set("runtime.scaling_eff",
            mean_of(ref_seconds) / (4.0 * mean_of(par_seconds)),
            ref_seconds.size(), "sampled jobs vs their single-lane run");
    out.set("trace.overhead", plain_options_per_s / options_per_s(), n,
            "untraced / traced options_per_s");
    zero_unmeasured_layers(out);
    write_trace(log, opts, out);
  }
  out.info.push_back("gate: " + std::to_string(checked) +
                     " jobs (the first and a seed-chosen sample) checked "
                     "bit-for-bit against single-lane runs (Greeks, ladder, "
                     "sweep aggregates), " +
                     std::to_string(mismatched) + " mismatched");
  out.gate(mismatched == 0 && checked > 0,
           "eod outputs differ from the single-lane runs");
  return out;
}

}  // namespace perfbench
