/// \file intraday.cpp
/// `intraday`: one caller making back-to-back PortfolioRuntime::price calls
/// (cpu-vec, 4 lanes, 16 shards of 64 options) on fresh 1,024-option
/// continuous-maturity books. Runtime plumbing (per-call pool, per-shard
/// copies) is a large share of every call; no net, service or cluster code
/// runs.

#include <string>

#include "cds/batch_pricer.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace runtime = cdsflow::runtime;

constexpr std::size_t kBook = 1024;
constexpr double kGateRate = 1.0 / 16.0;

runtime::RuntimeConfig intraday_config(unsigned lanes) {
  runtime::RuntimeConfig config;
  config.engine = "cpu-vec";
  config.workers = lanes;
  config.shard_size = lanes == 1 ? kBook : 64;
  return config;
}

}  // namespace

Outcome run_intraday(const Options& opts) {
  const Market m = market(opts.seed);
  Outcome out;
  SetupSampler setup(
      [&] {
        const auto t0 = Clock::now();
        const runtime::PortfolioRuntime rt(m.interest, m.hazard,
                                           intraday_config(4));
        return seconds_since(t0);
      },
      0.4);

  runtime::PortfolioRuntime rt(m.interest, m.hazard, intraday_config(4));
  runtime::PortfolioRuntime single(m.interest, m.hazard, intraday_config(1));
  SingleLaneGate gate(single, opts.seed, kGateRate);

  std::uint64_t next = 0;
  const auto make = [&](std::uint64_t i) {
    return continuous_book(opts.seed, Stream::kIntradayBooks, i, kBook);
  };
  const auto call = [&](const std::vector<cds::CdsOption>& book) {
    return rt.price(book);
  };

  if (!opts.trace) {
    const Window w = closed_loop(
        opts.seconds, 1000, 200, next, make, call,
        [&](const auto& book, const auto& run, std::uint64_t, double latency) {
          gate.check(book, run.run.results, latency);
          setup.tick();
        });
    report_common(w, setup, out);
    out.set("options_per_s", per_second_of_median_op(w, kBook), w.attempted,
            "book options / median call");
    out.set("scenarios_per_s", per_second_of_median_op(w, 1.0), w.attempted,
            "one scenario (the live curves) per call");
  } else {
    // Untraced reference for the tracing overhead, then the traced window.
    const Window plain = closed_loop(opts.seconds / 2, 1000, 200, next, make,
                                     call, [](const auto&...) {});
    SpanLog log;
    const cds::BatchPricer direct(m.interest, m.hazard,
                                  cds::simd::active_level());
    cds::BatchPricer::Workspace ws;
    std::vector<cds::SpreadResult> spreads;
    std::vector<double> modelled, shards, lane_busy, shard_ms, tabulate,
        combine, grids, dedup;
    const Window w = closed_loop(
        opts.seconds, 1000, 0, next, make, call,
        [&](const auto& book, const runtime::RuntimeRun& run, std::uint64_t op,
            double latency) {
          const double end = log.now();
          const auto root =
              log.add("runtime.price", op, -1, {end - latency, end});
          std::vector<double> secs;
          std::vector<unsigned> lanes;
          double busy = 0.0;
          for (const auto& s : run.shards) {
            secs.push_back(s.engine_seconds);
            lanes.push_back(s.lane);
            busy += s.engine_seconds;
          }
          log.add_lane_children("engine.shard", root, secs, lanes);
          modelled.push_back(run.run.total_seconds);
          shards.push_back(static_cast<double>(run.shards.size()));
          lane_busy.push_back(busy / (run.lanes * latency));
          shard_ms.push_back(busy / static_cast<double>(run.shards.size()));

          const CdsSplit split = measure_cds(direct, book, ws, spreads, log, op);
          tabulate.push_back(split.tabulate_s);
          combine.push_back(split.combine_s);
          grids.push_back(static_cast<double>(split.stats.unique_schedules));
          dedup.push_back(dedup_ratio(split.stats));
          gate.check(book, run.run.results, latency);
        });
    out.attempted = w.attempted;
    out.failed = w.failed;
    const std::size_t n = w.attempted - w.failed;
    out.set("runtime.self_ms", median(log.self_seconds_of("runtime.price")) * 1e3, n,
            "median wall minus modelled makespan");
    out.set("runtime.modelled_ms", median(modelled) * 1e3, n);
    out.set("runtime.shards", mean_of(shards), n);
    out.set("runtime.lane_busy", mean_of(lane_busy), n);
    out.set("engines.shard_ms", mean_of(shard_ms) * 1e3, n);
    out.set("cds.tabulate_ms", median(tabulate) * 1e3, n);
    out.set("cds.combine_ms", median(combine) * 1e3, n);
    out.set("cds.unique_grids", mean_of(grids), n);
    out.set("cds.dedup_ratio", mean_of(dedup), n);
    out.set("runtime.scaling_eff",
            gate.scaling_eff(4.0), gate.checked(),
            "checked calls vs their single-lane run");
    out.set("trace.overhead",
            percentile(w.latency_s, 50).value() /
                percentile(plain.latency_s, 50).value(),
            w.latency_s.size(), "traced / untraced latency p50");
    zero_unmeasured_layers(out);
    write_trace(log, opts, out);
  }
  gate.report("intraday", out);
  return out;
}

}  // namespace perfbench
