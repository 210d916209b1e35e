/// \file cdsflow_cli.cpp
/// Command-line front end: price portfolios, bootstrap hazard curves, and
/// inspect device fit without writing C++.
///
///   cdsflow_cli price --engine vectorised --count 256 [--seed 42]
///                     [--curve-interest f.csv] [--curve-hazard f.csv]
///                     [--portfolio book.csv] [--out results.csv]
///                     [--workers N] [--shard-size S]
///                     [--auto-plan] [--deadline-s D] [--probe-sizes 128,2048]
///
/// `--workers` / `--shard-size` route pricing through the sharded batch
/// runtime (src/runtime/): the book is cut into shards and priced on N
/// lanes (one engine replica and one thread each, lane 0 the calling
/// thread), results merged back in submission order.
///
/// `--auto-plan` replaces the hand-chosen flags with the probe-calibrated
/// auto-planner (engines/planner.hpp): every candidate back-end is probed
/// at >= 2 sizes, an affine cost model (setup + per-option) is fitted, and
/// the cheapest engine x workers x shard_size plan whose projected list-
/// schedule makespan meets `--deadline-s` (default 3600) is executed.
/// Explicit --engine/--workers/--shard-size flags override the planned
/// values.
///
///   cdsflow_cli risk  --engine cpu-batch-risk [--count N] [--seed S]
///                     [--bump B] [--ladder 0,1,3,5,7,10]
///                     [--curve-interest f.csv] [--curve-hazard f.csv]
///                     [--portfolio book.csv] [--out risk.csv]
///                     [--workers N] [--shard-size S]
///                     [--auto-plan] [--deadline-s D] [--probe-sizes 128,2048]
///
/// `risk` computes per-option CS01/IR01/Rec01/JTD (and a bucketed CS01
/// ladder when --ladder is given) on a CPU risk engine -- by default the
/// batched kernel that bumps each unique schedule grid once instead of
/// repricing per option. Results match the scalar reference within 1e-9
/// relative (documented kernel tolerance: 1e-12).
///
/// Every CPU engine name also accepts the "-vec" kernel token
/// ("cpu-vec[-risk]"): the batch kernel on the SIMD vector lanes
/// (docs/VECTOR_LANES.md). Under --auto-plan the vector candidates are
/// probed like any other back-end and win whenever measured fastest. A CPU
/// engine name carries no lane count: --workers (or --lanes for `serve`)
/// sets it, 0 meaning all cores.
///
///   cdsflow_cli stream [--engine cpu-batch[-risk]] [--count N] [--seed S]
///                      [--rate HZ] [--max-batch B] [--max-wait-us W]
///                      [--deadline-us D] [--policy block|drop-oldest]
///                      [--queue-capacity C] [--workers N]
///                      [--hazard-every K] [--hazard-scale S]
///                      [--tenors 1,3,5,7,10]
///                      [--bump B] [--ladder 0,1,3,5,7,10]
///                      [--curve-interest f.csv] [--curve-hazard f.csv]
///                      [--out results.csv] [--batch-trace trace.csv]
///
/// `stream` drives the streaming quote-ingest runtime (src/runtime/
/// stream_runtime.hpp) with a deterministic synthetic feed: `--count`
/// events arrive at `--rate` events/s (0 = unpaced saturation), every
/// `--hazard-every`th event is a hazard-quote update applied incrementally
/// to the lane pricers, micro-batches flush on `--max-batch` or
/// `--max-wait-us`, and the report carries ingest-to-result latency
/// percentiles, `--deadline-us` miss counts and queue accounting next to
/// the modelled/wall throughput split. An engine name carrying "-risk"
/// streams per-option Greeks instead of spreads alone.
///
///   cdsflow_cli sweep [--scenarios N] [--kind hazard|mc|rate|joint]
///                     [--shock-bp B] [--count N] [--seed S]
///                     [--tenors 1,3,5,7,10] [--workers N] [--shard-size S]
///                     [--curve-interest f.csv] [--curve-hazard f.csv]
///                     [--portfolio book.csv] [--out aggregates.csv]
///
/// `sweep` prices ONE book under `--scenarios` perturbed market states on
/// the scenario-sweep engine (cds/sweep_pricer.hpp): the book is
/// deduplicated and its grids tabulated once, then each scenario
/// re-tabulates only the column its kind moves (hazard kinds the survival
/// column, "rate" the discount column, "joint" both). --kind selects the
/// generator: "hazard" a parallel stress ladder over +-`--shock-bp` basis
/// points, "mc" deterministic lognormal Monte-Carlo hazard paths, "rate" a
/// historical-replay random walk of the interest curve, "joint" the
/// two-sided stress ladder. --workers shards the scenario axis across
/// SweepPricer replicas (results bit-identical for any worker/shard
/// split); --out writes the per-scenario min/max spread aggregates as CSV.
///
///   cdsflow_cli serve [--unix /tmp/cds.sock | --port N] [--tenants K]
///                     [--risk-tenants R] [--engine cpu-batch] [--lanes L]
///                     [--max-batch B] [--max-wait-us W]
///                     [--class interactive|standard|batch]
///                     [--ops-per-second X --setup-s S] [--stop-when-idle]
///                     [--latency-cdf cdf.csv]
///                     [--curve-interest f.csv] [--curve-hazard f.csv]
///
/// `serve` runs the multi-tenant binary pricing service (src/service/):
/// tenants 1..K each get their own StreamRuntime (the last R in risk mode)
/// and an admission controller that projects each request's completion
/// through the planner's affine fit -- calibrated by probing the serving
/// engine unless --ops-per-second/--setup-s pin it -- and admits, defers or
/// sheds against the deadline class. --port 0 binds an ephemeral TCP port
/// (printed); --stop-when-idle exits once all clients have come and gone
/// (scripted runs); --latency-cdf writes per-tenant response-latency
/// percentiles as CSV.
///
///   cdsflow_cli client-replay (--unix /tmp/cds.sock | --host H --port N)
///                     [--tenant T] [--events N] [--request-size S]
///                     [--hazard-every K] [--risk] [--seed S]
///                     [--tenors 1,3,5,7,10] [--out results.csv]
///                     [--curve-hazard f.csv]
///
/// `client-replay` replays tenant T's seeded feed against a running server:
/// option events are grouped into price/risk requests of at most
/// --request-size (hazard updates flush the open request, preserving event
/// order), sent pipelined, and the responses are collected in request
/// order. Exit code 1 if any request was rejected.
///
///   cdsflow_cli cluster-worker (--unix /tmp/w.sock | --port N)
///                     [--engine cpu-batch] [--workers N] [--shard-size S]
///                     [--ops-per-second X --setup-s S] [--watts W]
///                     [--probe-sizes 256,2048] [--stop-when-idle]
///                     [--curve-interest f.csv] [--curve-hazard f.csv]
///
/// `cluster-worker` runs one node of the multi-process cluster plane
/// (src/cluster/, docs/CLUSTER.md): a local PortfolioRuntime behind the
/// binary wire protocol's NODE_PROBE / SHARD_PRICE / SHARD_RESULT frames
/// (docs/PROTOCOL.md). Unless --ops-per-second/--setup-s pin it, the
/// worker calibrates its own affine fit at --probe-sizes before serving --
/// that fit is what the coordinator's heterogeneous planner schedules on.
/// --stop-when-idle exits once all coordinators have come and gone.
///
///   cdsflow_cli cluster-price --nodes unix:/a.sock,host:port,...
///                     [--count N] [--seed S] [--portfolio book.csv]
///                     [--risk] [--shard-size S] [--deadline-s D]
///                     [--connect-timeout-s T] [--bandwidth BYTES_PER_S]
///                     [--verify] [--out results.csv]
///                     [--curve-interest f.csv] [--curve-hazard f.csv]
///
/// `cluster-price` coordinates a book across running cluster workers: it
/// probes every node (measured link latency + self-reported fit), plans
/// shard assignments with engine::plan_cluster() (deadline-first, then
/// energy), dispatches shards over the sockets and merges the results in
/// submission order. All workers must run the same engine name for the
/// merge to be bit-identical to a single-process run; --verify re-prices
/// the book locally on that engine and exits 1 unless every row matches
/// bit for bit (workers must then also serve the same curves this process
/// loads). --bandwidth sets the link model's modelled bytes/second.
///
///   cdsflow_cli bootstrap --quotes quotes.csv [--out hazard.csv]
///   cdsflow_cli engines
///   cdsflow_cli device [--engines N] [--lanes L]
///
/// Each command reads only the flags listed for it above: any other flag, a
/// repeated flag and the --flag=value form are usage errors before anything
/// is built.
/// Counts, sizes, seeds and ports must be integers in range ("--count -1"
/// and "--port 70000" are errors, not wrapped values).
///
/// Exit code 0 on success, 1 on usage/validation errors (message on
/// stderr).

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cds/bootstrap.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/thread_annotations.hpp"
#include "engines/planner.hpp"
#include "engines/registry.hpp"
#include "fpga/resource.hpp"
#include "io/csv.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "runtime/sweep_runtime.hpp"
#include "service/service.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace cdsflow;

/// Strict numeric parses: the whole field must be consumed, so "5y" or
/// "1e-4x" is a usage error instead of a silently truncated value.
double parse_double_strict(const std::string& s, const std::string& what) {
  const char* begin = s.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  CDSFLOW_EXPECT(end != begin && *end == '\0',
                 what + " expects a number, got '" + s + "'");
  return v;
}

/// The one integer parse (counts, sizes, seeds, ports, lanes): the whole
/// field must be an integer in [lo, hi], checked before it is narrowed to T,
/// so "-1" or a port of 70000 is a usage error instead of a wrapped value.
/// `note` follows the range in the message.
template <class T>
T parse_uint_strict(const std::string& s, const std::string& what,
                    T lo = 0, T hi = std::numeric_limits<T>::max(),
                    const std::string& note = "") {
  unsigned long long v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  CDSFLOW_EXPECT(ec == std::errc() && ptr == end && v >= lo && v <= hi,
                 what + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]" + note + ", got '" + s + "'");
  return static_cast<T>(v);
}

/// Splits "a,b,c" into its fields; an empty field is a usage error.
std::vector<std::string> split_fields(const std::string& csv,
                                      const std::string& flag) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', begin), csv.size());
    fields.push_back(csv.substr(begin, comma - begin));
    CDSFLOW_EXPECT(!fields.back().empty(),
                   flag + " expects a comma-separated list, got '" + csv +
                       "'");
    begin = comma + 1;
  }
  return fields;
}

/// --flag [value] parser over the flags one command reads. A flag followed
/// by another --flag (or by nothing) is boolean presence ("--auto-plan");
/// value-taking flags reject the resulting empty string in their strict
/// parses. Any flag the command does not read, a repeated flag and the
/// --flag=value form are rejected here, before anything is built.
class Args {
 public:
  Args(int argc, char** argv, int first, const std::string& command,
       std::span<const std::string_view> known) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      CDSFLOW_EXPECT(key.rfind("--", 0) == 0, "expected --flag, got '" + key +
                                                  "'");
      const std::string name = key.substr(2);
      CDSFLOW_EXPECT(name.find('=') == std::string::npos,
                     "'" + key + "': give the value after a space (--" +
                         name.substr(0, name.find('=')) +
                         " VALUE); the --flag=value form is not accepted");
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        std::string flags;
        for (const auto flag : known) {
          flags += (flags.empty() ? "its flags: --" : ", --") +
                   std::string(flag);
        }
        throw Error("unknown flag '" + key + "' for " + command + " (" +
                    (flags.empty() ? "it takes no flags" : flags) + ")");
      }
      CDSFLOW_EXPECT(!values_.contains(name), "'" + key + "' given twice");
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "";  // boolean flag
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& key, std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }

  /// parse_uint_strict() of --key, or `fallback` when absent.
  template <class T>
  T get_uint_or(const std::string& key, T fallback, T lo = 0,
                T hi = std::numeric_limits<T>::max()) const {
    const auto v = get(key);
    if (!v) return fallback;
    return parse_uint_strict<T>(*v, "--" + key, lo, hi);
  }

  double get_double_or(const std::string& key, double fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    return parse_double_strict(*v, "--" + key);
  }

  /// The one lane-count parse (--workers, --lanes): 0 means all cores.
  unsigned get_lanes_or(const std::string& key, unsigned fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    return parse_uint_strict<unsigned>(*v, "--" + key, 0,
                                       std::numeric_limits<unsigned>::max(),
                                       " (0 = all cores)");
  }

 private:
  std::map<std::string, std::string> values_;
};

struct Curves {
  cds::TermStructure interest;
  cds::TermStructure hazard;
};

Curves load_curves(const Args& args) {
  return {args.get("curve-interest")
              ? io::read_curve_csv(*args.get("curve-interest"))
              : workload::paper_interest_curve(),
          args.get("curve-hazard")
              ? io::read_curve_csv(*args.get("curve-hazard"))
              : workload::paper_hazard_curve()};
}

std::vector<cds::CdsOption> load_book(const Args& args) {
  if (args.get("portfolio")) {
    return io::read_portfolio_csv(*args.get("portfolio"));
  }
  workload::PortfolioSpec spec;
  spec.count = args.get_uint_or<std::size_t>("count", 256);
  spec.seed = args.get_uint_or<std::uint64_t>("seed", 42);
  return workload::make_portfolio(spec);
}

/// "0,1,3,5,7,10" -> {0, 1, 3, 5, 7, 10}. `flag` names the option in
/// diagnostics (--ladder, --tenors).
std::vector<double> parse_edge_list(const std::string& csv,
                                    const std::string& flag = "--ladder") {
  std::vector<double> edges;
  for (const auto& field : split_fields(csv, flag)) {
    edges.push_back(parse_double_strict(field, flag));
  }
  return edges;
}

/// --probe-sizes "128,2048" into `sizes` when given; the planner's
/// checked_probe_sizes() validates them like every probe client's.
void probe_sizes_from_args(const Args& args, std::vector<std::size_t>& sizes) {
  if (!args.get("probe-sizes")) return;
  sizes.clear();
  for (const auto& field : split_fields(*args.get("probe-sizes"),
                                        "--probe-sizes")) {
    sizes.push_back(parse_uint_strict<std::size_t>(field, "--probe-sizes"));
  }
}

/// Applies --workers/--shard-size to `cfg` (only the flags that were given,
/// so planned values survive as defaults); returns false when neither
/// sharding flag was present.
bool runtime_config_from_args(const Args& args, runtime::RuntimeConfig& cfg) {
  if (!args.get("workers") && !args.get("shard-size")) return false;
  cfg.workers = args.get_lanes_or("workers", cfg.workers);
  cfg.shard_size = args.get_uint_or<std::size_t>("shard-size", cfg.shard_size);
  return true;
}

/// Runs the probe-calibrated auto-planner (--auto-plan) and returns the
/// chosen RuntimeConfig, with any explicit --engine/--workers/--shard-size
/// flags applied as overrides on top of the plan.
runtime::RuntimeConfig auto_plan_config(const Args& args,
                                        const Curves& curves,
                                        std::size_t n_options,
                                        const engine::CpuEngineConfig& cpu) {
  engine::PlannerConfig pcfg;
  pcfg.risk_mode = cpu.risk_mode;
  pcfg.cpu = cpu;
  probe_sizes_from_args(args, pcfg.probe_sizes);
  const double deadline_s = args.get_double_or("deadline-s", 3600.0);
  CDSFLOW_EXPECT(deadline_s > 0.0, "--deadline-s must be > 0");

  const engine::BatchRequirements requirements{n_options, deadline_s};
  const auto entries = engine::plan_runtime(curves.interest, curves.hazard,
                                            requirements, pcfg);
  std::cout << "auto-plan: " << entries.size() << " candidate plan(s) for "
            << n_options << " options in <= " << fixed(deadline_s, 1)
            << " s (top 5):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, entries.size()); ++i) {
    const auto& e = entries[i];
    std::cout << "  " << pad_right(e.config.engine, 22) << " x"
              << e.config.workers << " worker(s), shard "
              << e.config.shard_size << " (" << e.n_shards
              << " shard(s)): " << fixed(e.projected_seconds, 4) << " s, "
              << fixed(e.projected_joules, 1) << " J"
              << (e.meets_deadline ? "" : "  [misses deadline]") << '\n';
  }
  const auto best = engine::best_runtime_plan(entries);
  CDSFLOW_EXPECT(best.has_value(),
                 "no plan meets the deadline; fastest projected " +
                     fixed(entries.front().projected_seconds, 6) +
                     " s -- raise --deadline-s or scale out");
  runtime::RuntimeConfig cfg = best->config;
  std::cout << "chosen plan: " << cfg.engine << " x " << cfg.workers
            << " worker(s), shard size " << cfg.shard_size << " (projected "
            << fixed(best->projected_seconds, 4) << " s, "
            << fixed(best->projected_joules, 1) << " J, setup "
            << fixed(best->candidate.setup_seconds * 1e3, 3)
            << " ms/shard)\n";
  // Explicit flags override the planned values (same validation as the
  // manual sharding path; absent flags keep the plan).
  if (args.get("engine")) cfg.engine = *args.get("engine");
  (void)runtime_config_from_args(args, cfg);
  return cfg;
}

/// The batch path `price` and `risk` share: the auto-planned runtime
/// (--auto-plan), the flag-given one (--workers / --shard-size), or else one
/// `engine_name` engine prices the book; prints what ran and returns the run.
engine::PricingRun price_batch(const Args& args, const Curves& curves,
                               const std::vector<cds::CdsOption>& book,
                               const std::string& engine_name,
                               const engine::CpuEngineConfig& cpu) {
  runtime::RuntimeConfig cfg;
  cfg.engine = engine_name;
  cfg.cpu = cpu;
  bool use_runtime;
  if (args.get("auto-plan")) {
    cfg = auto_plan_config(args, curves, book.size(), cpu);
    use_runtime = true;
  } else {
    use_runtime = runtime_config_from_args(args, cfg);
  }
  if (use_runtime) {
    runtime::PortfolioRuntime rt(curves.interest, curves.hazard, cfg);
    auto batch = rt.price(book);
    std::cout << "sharded runtime: " << batch.lanes << " lane(s) of ["
              << rt.worker_description() << "], " << batch.shards.size()
              << " shard(s) of <= " << batch.shard_size << " options\n"
              << "options: " << book.size() << "\n"
              << "modelled throughput: "
              << with_thousands(batch.run.options_per_second, 2)
              << " options/s\n"
              << "wall throughput: "
              << with_thousands(batch.wall_options_per_second, 2)
              << " options/s\n";
    return std::move(batch.run);
  }
  auto engine = engine::make_engine(engine_name, curves.interest,
                                    curves.hazard, {}, cpu);
  auto run = engine->price(book);
  std::cout << engine->description() << '\n'
            << "options: " << book.size() << "\n"
            << "throughput: " << with_thousands(run.options_per_second, 2)
            << " options/s";
  if (run.kernel_cycles > 0) {
    std::cout << " (" << with_thousands(double(run.kernel_cycles), 0)
              << " simulated kernel cycles)";
  }
  std::cout << '\n';
  return run;
}

int cmd_price(const Args& args) {
  const Curves curves = load_curves(args);
  const auto book = load_book(args);
  const engine::PricingRun run = price_batch(
      args, curves, book, args.get_or("engine", "vectorised"), {});

  if (args.get("out")) {
    io::write_results_csv(*args.get("out"), run.results);
    std::cout << "results written to " << *args.get("out") << '\n';
  } else {
    for (std::size_t i = 0; i < std::min<std::size_t>(5, run.results.size());
         ++i) {
      std::cout << "  id " << run.results[i].id << ": "
                << fixed(run.results[i].spread_bps, 2) << " bps\n";
    }
    if (run.results.size() > 5) {
      std::cout << "  ... (" << run.results.size() - 5
                << " more; use --out to save)\n";
    }
  }
  return 0;
}

int cmd_risk(const Args& args) {
  const Curves curves = load_curves(args);
  const auto book = load_book(args);

  const std::string engine_name = args.get_or("engine", "cpu-batch-risk");
  CDSFLOW_EXPECT(engine_name.rfind("cpu", 0) == 0,
                 "risk needs a CPU engine (cpu-risk / cpu-batch-risk / "
                 "cpu-vec-risk; --workers sets the lanes); simulated engines "
                 "only price");
  engine::CpuEngineConfig cpu;
  cpu.risk_mode = true;  // "risk" on any cpu engine name forces risk mode
  cpu.risk_bump = args.get_double_or("bump", 1e-4);
  if (args.get("ladder")) {
    cpu.ladder_edges = parse_edge_list(*args.get("ladder"));
  }

  const engine::PricingRun run =
      price_batch(args, curves, book, engine_name, cpu);
  CDSFLOW_EXPECT(run.sensitivities.size() == book.size(),
                 "engine returned no sensitivities");

  // Book-level aggregates: per-option Greeks sum to portfolio Greeks.
  double cs01 = 0.0, ir01 = 0.0, rec01 = 0.0, jtd = 0.0;
  for (const auto& s : run.sensitivities) {
    cs01 += s.cs01;
    ir01 += s.ir01;
    rec01 += s.rec01;
    jtd += s.jtd;
  }
  std::cout << "book totals: CS01 " << fixed(cs01, 4) << " bps/bp, IR01 "
            << fixed(ir01, 4) << " bps/bp, Rec01 " << fixed(rec01, 4)
            << " bps/%, JTD " << fixed(jtd, 2) << " units\n";

  if (args.get("out")) {
    io::write_sensitivities_csv(*args.get("out"), run.results,
                                run.sensitivities, run.cs01_ladder,
                                run.ladder_buckets);
    std::cout << "risk results written to " << *args.get("out") << '\n';
  } else {
    for (std::size_t i = 0;
         i < std::min<std::size_t>(5, run.sensitivities.size()); ++i) {
      const auto& s = run.sensitivities[i];
      std::cout << "  id " << run.results[i].id << ": spread "
                << fixed(s.spread_bps, 2) << " bps, cs01 "
                << fixed(s.cs01, 4) << ", ir01 " << fixed(s.ir01, 6)
                << ", rec01 " << fixed(s.rec01, 4) << ", jtd "
                << fixed(s.jtd, 2) << '\n';
    }
    if (run.sensitivities.size() > 5) {
      std::cout << "  ... (" << run.sensitivities.size() - 5
                << " more; use --out to save)\n";
    }
  }
  return 0;
}

int cmd_stream(const Args& args) {
  const auto [interest, hazard] = load_curves(args);

  runtime::StreamConfig cfg;
  cfg.engine = args.get_or("engine", "cpu-batch");
  cfg.lanes = args.get_lanes_or("workers", 0);
  cfg.queue_capacity =
      args.get_uint_or<std::size_t>("queue-capacity", 8192, 1);
  cfg.policy =
      runtime::parse_backpressure_policy(args.get_or("policy", "block"));
  cfg.max_batch = args.get_uint_or<std::size_t>("max-batch", 1024, 1);
  cfg.max_wait_us = args.get_uint_or<std::uint64_t>("max-wait-us", 500);
  cfg.deadline_us = args.get_uint_or<std::uint64_t>("deadline-us", 0);
  cfg.risk_bump = args.get_double_or("bump", 1e-4);
  if (args.get("ladder")) {
    cfg.ladder_edges = parse_edge_list(*args.get("ladder"));
  }

  workload::QuoteFeedSpec feed_spec;
  feed_spec.events = args.get_uint_or<std::size_t>("count", 16384);
  feed_spec.rate_hz = args.get_double_or("rate", 0.0);
  feed_spec.hazard_update_every =
      args.get_uint_or<std::size_t>("hazard-every", 0);
  feed_spec.hazard_update_scale = args.get_double_or("hazard-scale", 0.05);
  feed_spec.seed = args.get_uint_or<std::uint64_t>("seed", 42);
  if (args.get("tenors")) {
    // Standard-tenor quoting: many quotes share a schedule, the lanes' grid
    // caches (and the incremental updates) do the least work.
    feed_spec.book.maturity_tenor_grid =
        parse_edge_list(*args.get("tenors"), "--tenors");
  }
  const auto feed = workload::make_quote_feed(feed_spec, hazard);

  runtime::StreamRuntime rt(interest, hazard, cfg);
  std::cout << "streaming runtime: " << rt.lanes() << " lane(s) of ["
            << rt.worker_description() << "], queue capacity "
            << cfg.queue_capacity << " (" << to_string(cfg.policy)
            << "), micro-batch <= " << cfg.max_batch << " or "
            << cfg.max_wait_us << " us\n";
  const auto report = rt.play(feed);

  auto us = [](double seconds) { return fixed(seconds * 1e6, 1) + " us"; };
  std::cout << "events: " << report.events_in << " in, "
            << report.events_priced << " priced, " << report.hazard_updates
            << " hazard update(s), " << report.events_dropped
            << " dropped\n"
            << "micro-batches: " << report.batches.size() << " ("
            << with_thousands(report.batches_per_second, 1)
            << " batches/s), queue high water " << report.queue_high_water
            << ", blocked pushes " << report.blocked_pushes << "\n"
            << "modelled throughput: "
            << with_thousands(report.modelled_events_per_second, 2)
            << " options/s\nwall throughput: "
            << with_thousands(report.wall_events_per_second, 2)
            << " options/s\n"
            << "ingest-to-result latency: p50 "
            << us(report.p50_latency_seconds) << ", p99 "
            << us(report.p99_latency_seconds) << ", max "
            << us(report.max_latency_seconds) << '\n';
  if (cfg.deadline_us > 0) {
    std::cout << "deadline " << cfg.deadline_us << " us: "
              << report.deadline_misses << " miss(es)\n";
  }
  if (report.hazard_updates > 0) {
    std::cout << "incremental risk: " << report.grids_retabulated
              << " grid re-tabulation(s) vs " << report.full_rebuild_grids
              << " under per-update full rebuilds\n";
  }

  if (args.get("out")) {
    if (rt.risk_mode()) {
      io::write_sensitivities_csv(*args.get("out"), report.run.results,
                                  report.run.sensitivities,
                                  report.run.cs01_ladder,
                                  report.run.ladder_buckets);
    } else {
      io::write_results_csv(*args.get("out"), report.run.results);
    }
    std::cout << "results written to " << *args.get("out") << '\n';
  }
  if (args.get("batch-trace")) {
    std::vector<io::StreamBatchRow> rows;
    rows.reserve(report.batches.size());
    for (const auto& b : report.batches) {
      rows.push_back({b.index, b.events, b.lane, b.pricing_seconds,
                      b.max_latency_seconds * 1e6, b.deadline_misses});
    }
    io::write_stream_batches_csv(*args.get("batch-trace"), rows);
    std::cout << "batch trace written to " << *args.get("batch-trace")
              << '\n';
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto [interest, hazard] = load_curves(args);

  std::vector<cds::CdsOption> book;
  if (args.get("portfolio")) {
    book = io::read_portfolio_csv(*args.get("portfolio"));
  } else {
    workload::PortfolioSpec spec;
    spec.count = args.get_uint_or<std::size_t>("count", 4096);
    spec.seed = args.get_uint_or<std::uint64_t>("seed", 42);
    if (args.get("tenors")) {
      // Standard-tenor quoting: few unique schedules, maximal dedup -- the
      // book shape the sweep amortises best.
      spec.maturity_tenor_grid = parse_edge_list(*args.get("tenors"),
                                                 "--tenors");
    }
    book = workload::make_portfolio(spec);
  }

  const auto n_scenarios = args.get_uint_or<std::size_t>("scenarios", 4096, 1);
  const double shock_bp = args.get_double_or("shock-bp", 100.0);
  CDSFLOW_EXPECT(shock_bp > 0.0, "--shock-bp must be > 0");
  const std::string kind = args.get_or("kind", "hazard");
  workload::ScenarioSet set;
  if (kind == "hazard") {
    set = workload::parallel_stress_scenarios(hazard, n_scenarios, shock_bp);
  } else if (kind == "mc") {
    set = workload::mc_hazard_scenarios(hazard, n_scenarios);
  } else if (kind == "rate") {
    set = workload::replay_scenarios(interest, n_scenarios);
  } else if (kind == "joint") {
    set = workload::joint_stress_scenarios(interest, hazard, n_scenarios,
                                           shock_bp);
  } else {
    throw Error("--kind must be hazard, mc, rate or joint (got '" + kind +
                "')");
  }

  runtime::SweepRuntimeConfig cfg;
  cfg.workers = args.get_lanes_or("workers", 1);
  cfg.shard_size = args.get_uint_or<std::size_t>("shard-size", 0);
  cfg.level = cds::simd::active_level();

  runtime::SweepRuntime rt(interest, hazard, book, cfg);
  const auto run = rt.run(set.matrix());

  std::cout << "scenario sweep: " << set.name << " (" << to_string(set.kind)
            << "), " << run.stats.scenarios << " scenario(s) x "
            << run.stats.options << " option(s) on "
            << run.stats.unique_schedules << " unique schedule(s) ("
            << run.stats.grid_points << " grid point(s))\n"
            << "runtime: " << run.lanes << " lane(s), " << run.shards.size()
            << " shard(s) of <= " << run.shard_size << " scenario(s), SIMD "
            << cds::simd::to_string(cfg.level) << "\n"
            << "columns: " << run.stats.retabulated_columns
            << " re-tabulated, " << run.stats.shared_columns << " shared ("
            << fixed(run.stats.shared_column_rate() * 100.0, 1)
            << "% shared)\n"
            << "modelled throughput: "
            << with_thousands(run.modelled_scenarios_per_second, 2)
            << " scenarios/s\nwall throughput: "
            << with_thousands(run.wall_scenarios_per_second, 2)
            << " scenarios/s\n";

  if (args.get("out")) {
    std::vector<io::SweepAggregateRow> rows;
    rows.reserve(run.aggregates.size());
    for (std::size_t s = 0; s < run.aggregates.size(); ++s) {
      rows.push_back({s, run.aggregates[s].min_spread_bps,
                      run.aggregates[s].max_spread_bps});
    }
    io::write_sweep_aggregates_csv(*args.get("out"), rows);
    std::cout << "aggregates written to " << *args.get("out") << '\n';
  } else {
    for (std::size_t s = 0;
         s < std::min<std::size_t>(5, run.aggregates.size()); ++s) {
      std::cout << "  scenario " << s << ": spread ["
                << fixed(run.aggregates[s].min_spread_bps, 2) << ", "
                << fixed(run.aggregates[s].max_spread_bps, 2) << "] bps\n";
    }
    if (run.aggregates.size() > 5) {
      std::cout << "  ... (" << run.aggregates.size() - 5
                << " more; use --out to save)\n";
    }
  }
  return 0;
}

int cmd_bootstrap(const Args& args) {
  CDSFLOW_EXPECT(args.get("quotes").has_value(),
                 "bootstrap requires --quotes quotes.csv");
  const auto quotes = io::read_quotes_csv(*args.get("quotes"));
  const auto interest = args.get("curve-interest")
                            ? io::read_curve_csv(*args.get("curve-interest"))
                            : workload::paper_interest_curve();
  const auto result = cds::bootstrap_hazard_curve(interest, quotes);
  std::cout << "bootstrapped " << result.hazard.size()
            << "-segment hazard curve, max repricing error "
            << compact(result.max_error_bps) << " bps ("
            << result.total_iterations << " solver iterations)\n";
  for (std::size_t i = 0; i < result.hazard.size(); ++i) {
    std::cout << "  (" << fixed(result.hazard.time(i), 2) << "y] h = "
              << fixed(result.hazard.value(i) * 1e4, 1) << " bps\n";
  }
  if (args.get("out")) {
    io::write_curve_csv(*args.get("out"), result.hazard);
    std::cout << "curve written to " << *args.get("out") << '\n';
  }
  return 0;
}

int cmd_engines(const Args&) {
  std::cout << "registered engines:\n";
  const auto interest = workload::paper_interest_curve(64);
  const auto hazard = workload::paper_hazard_curve(64);
  for (const auto& name : engine::engine_names()) {
    const auto engine = engine::make_engine(name, interest, hazard);
    std::cout << "  " << pad_right(name, 22) << engine->description()
              << '\n';
  }
  std::cout << "parameterised forms: cpu[-batch|-vec|-sweep][-risk], "
               "multi-<N>, cluster-<M>x<N> (lanes: --workers / --lanes)\n";
  return 0;
}

int cmd_device(const Args& args) {
  const auto device = fpga::alveo_u280();
  const fpga::ResourceEstimator estimator(device);
  fpga::EngineShape shape;
  shape.hazard_lanes = args.get_uint_or<unsigned>("lanes", 6);
  shape.interpolation_lanes = shape.hazard_lanes;
  const auto engines = args.get_uint_or<unsigned>("engines", 5);
  std::cout << estimator.utilisation_report(shape, engines);
  return 0;
}

/// Shared by client-replay: walk a tenant feed in order, grouping option
/// events into requests of at most `request_size`; a hazard event flushes
/// the open request first so the runtime sees events in exact feed order
/// (the same slicing tests/test_service.cpp uses for its bit-identity
/// comparison).
struct WireStep {
  bool quote = false;
  std::uint32_t request = 0;  // !quote
  std::vector<cds::CdsOption> options;
  std::uint32_t knot = 0;  // quote
  double rate = 0.0;
};

std::vector<WireStep> slice_feed_for_wire(
    const std::vector<workload::QuoteFeedEvent>& feed,
    std::size_t request_size) {
  std::vector<WireStep> steps;
  std::uint32_t next_request = 1;
  WireStep open;
  auto flush = [&] {
    if (open.options.empty()) return;
    open.request = next_request++;
    steps.push_back(std::move(open));
    open = {};
  };
  for (const auto& event : feed) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      flush();
      WireStep quote;
      quote.quote = true;
      quote.knot = static_cast<std::uint32_t>(event.knot);
      quote.rate = event.rate;
      steps.push_back(std::move(quote));
    } else {
      open.options.push_back(event.option);
      if (open.options.size() == request_size) flush();
    }
  }
  flush();
  return steps;
}

service::DeadlineClass parse_deadline_class(const Args& args) {
  const std::string name = args.get_or("class", "standard");
  const auto klass = service::find_deadline_class(name);
  CDSFLOW_EXPECT(klass.has_value(),
                 "--class must be interactive, standard or batch, got '" +
                     name + "'");
  return *klass;
}

int cmd_serve(const Args& args) {
  const auto [interest, hazard] = load_curves(args);

  const auto n_tenants = args.get_uint_or<std::uint32_t>("tenants", 2, 1);
  const auto n_risk =
      args.get_uint_or<std::uint32_t>("risk-tenants", 0, 0, n_tenants);
  const std::string engine = args.get_or("engine", "cpu-batch");
  const auto klass = parse_deadline_class(args);

  runtime::StreamConfig stream;
  stream.engine = engine;
  stream.lanes = args.get_lanes_or("lanes", stream.lanes);
  stream.max_batch =
      args.get_uint_or<std::size_t>("max-batch", stream.max_batch, 1);
  stream.max_wait_us =
      args.get_uint_or<std::uint64_t>("max-wait-us", stream.max_wait_us);

  net::ServerConfig server_config;
  server_config.unix_path = args.get_or("unix", "");
  server_config.tcp_port = args.get_uint_or<std::uint16_t>("port", 0);

  // Admission fit: explicit flags pin a deterministic model; otherwise the
  // serving engine is probed and fitted (the planner's probe->fit protocol).
  engine::BackendCandidate fit;
  const bool pinned = args.get("ops-per-second").has_value();
  if (pinned) {
    fit.engine_name = engine;
    fit.watts = 1.0;
    fit.options_per_second = args.get_double_or("ops-per-second", 0.0);
    fit.setup_seconds = args.get_double_or("setup-s", 0.0);
    CDSFLOW_EXPECT(fit.options_per_second > 0.0,
                   "--ops-per-second must be positive");
  } else {
    fit = service::calibrate_stream_fit(interest, hazard, stream);
  }

  service::ServiceConfig config;
  config.stop_when_idle = args.get("stop-when-idle").has_value();
  for (std::uint32_t i = 1; i <= n_tenants; ++i) {
    service::TenantSpec spec;
    spec.id = i;
    spec.name = "tenant-" + std::to_string(i);
    spec.deadline = klass;
    spec.stream = stream;
    spec.fit = fit;
    if (i > n_tenants - n_risk) {
      spec.stream.engine = engine + "-risk";
      if (pinned) {
        spec.fit.engine_name = spec.stream.engine;
      } else {
        spec.fit = service::calibrate_stream_fit(interest, hazard,
                                                 spec.stream);
      }
    }
    config.tenants.push_back(std::move(spec));
  }

  net::Server server(server_config);
  service::PricingService pricing(config, interest, hazard);

  if (!server_config.unix_path.empty()) {
    std::cout << "listening on unix:" << server.unix_path() << '\n';
  } else {
    std::cout << "listening on tcp port " << server.tcp_port() << '\n';
  }
  for (const auto& spec : config.tenants) {
    std::cout << "  tenant " << spec.id << " (" << spec.name << "): "
              << spec.stream.engine << " x"
              << (spec.stream.lanes == 0
                      ? std::string("auto")
                      : std::to_string(spec.stream.lanes))
              << " lane(s), class " << spec.deadline.name << " (deadline "
              << fixed(spec.deadline.deadline_seconds * 1e3, 1)
              << " ms, defer ceiling "
              << fixed(spec.deadline.defer_seconds * 1e3, 1)
              << " ms), fit " << with_thousands(spec.fit.options_per_second, 0)
              << " options/s + " << fixed(spec.fit.setup_seconds * 1e6, 1)
              << " us setup\n";
  }
  std::cout << (config.stop_when_idle
                    ? "serving until idle (all clients come and go)\n"
                    : "serving until killed\n");

  server.run(pricing);
  pricing.drain_all();

  const auto& stats = pricing.stats();
  std::cout << "served " << stats.frames << " frame(s): "
            << stats.quote_updates << " quote update(s), " << stats.requests
            << " request(s) -> " << stats.admitted << " admitted, "
            << stats.deferred << " deferred, " << stats.shed << " shed; "
            << stats.responses << " response(s), "
            << stats.rejects_malformed + stats.rejects_unknown_tenant +
                   stats.rejects_wrong_mode + stats.shed
            << " reject(s), " << stats.connections_poisoned
            << " poisoned connection(s)\n";
  if (args.get("latency-cdf")) {
    io::write_latency_cdf_csv(*args.get("latency-cdf"),
                              pricing.latency_rows());
    std::cout << "latency CDF written to " << *args.get("latency-cdf")
              << '\n';
  }
  return 0;
}

int cmd_client_replay(const Args& args) {
  const auto tenant = args.get_uint_or<std::uint32_t>("tenant", 1);
  CDSFLOW_EXPECT(tenant != 0, "--tenant 0 is reserved on the wire");
  const bool risk = args.get("risk").has_value();
  const auto port = args.get_uint_or<std::uint16_t>("port", 0);

  workload::QuoteFeedSpec spec;
  spec.events = args.get_uint_or<std::size_t>("events", 1024);
  spec.hazard_update_every = args.get_uint_or<std::size_t>("hazard-every", 64);
  spec.seed = args.get_uint_or<std::uint64_t>("seed", 42);
  spec.tenant = tenant;
  if (args.get("tenors")) {
    spec.book.maturity_tenor_grid =
        parse_edge_list(*args.get("tenors"), "--tenors");
  }
  const auto hazard = args.get("curve-hazard")
                          ? io::read_curve_csv(*args.get("curve-hazard"))
                          : workload::paper_hazard_curve();
  const auto steps =
      slice_feed_for_wire(workload::make_quote_feed(spec, hazard),
                          args.get_uint_or<std::size_t>("request-size", 64));

  net::Client client =
      args.get("unix")
          ? net::Client::connect_unix(*args.get("unix"))
          : net::Client::connect_tcp(args.get_or("host", "127.0.0.1"), port);

  // Pipelined replay: all frames out, then results in. The server responds
  // to requests in submission order per tenant, so responses can be matched
  // back positionally.
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n_requests = 0;
  std::size_t n_options = 0;
  for (const auto& step : steps) {
    if (step.quote) {
      client.send(net::encode_quote_update(tenant, step.knot, step.rate));
    } else {
      client.send(
          net::encode_price_request(tenant, step.request, step.options, risk));
      ++n_requests;
      n_options += step.options.size();
    }
  }

  std::vector<cds::SpreadResult> results;
  results.reserve(n_options);
  std::size_t deferred = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < n_requests; ++i) {
    const net::Frame frame = client.read_frame();
    if (frame.type == net::FrameType::kReject) {
      ++rejected;
      std::cout << "request " << frame.request << " rejected: "
                << net::to_string(frame.reason)
                << (frame.detail.empty() ? "" : " (" + frame.detail + ")")
                << '\n';
      continue;
    }
    CDSFLOW_EXPECT(frame.type == net::FrameType::kResult,
                   "unexpected frame type from server");
    if (frame.status == net::kResultDeferred) ++deferred;
    results.insert(results.end(), frame.results.begin(), frame.results.end());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  client.close();

  std::cout << "tenant " << tenant << ": " << n_requests << " request(s) ("
            << n_options << " option(s), " << (risk ? "risk" : "price")
            << " mode), " << results.size() << " result row(s), " << deferred
            << " deferred, " << rejected << " rejected, " << fixed(wall, 3)
            << " s wall (" << with_thousands(n_options / std::max(wall, 1e-9), 0)
            << " options/s end-to-end)\n";
  if (args.get("out")) {
    io::write_results_csv(*args.get("out"), results);
    std::cout << "results written to " << *args.get("out") << '\n';
  }
  return rejected == 0 ? 0 : 1;
}

int cmd_cluster_worker(const Args& args) {
  const auto [interest, hazard] = load_curves(args);

  cluster::WorkerConfig config;
  config.runtime.engine = args.get_or("engine", "cpu-batch");
  config.runtime.workers = args.get_lanes_or("workers", 1);
  config.runtime.shard_size = args.get_uint_or<std::size_t>("shard-size", 0);
  if (args.get("ops-per-second")) {
    config.fit.options_per_second =
        args.get_double_or("ops-per-second", 0.0);
    CDSFLOW_EXPECT(config.fit.options_per_second > 0.0,
                   "--ops-per-second must be positive");
    config.fit.setup_seconds = args.get_double_or("setup-s", 0.0);
  }
  config.fit.watts = args.get_double_or("watts", 0.0);
  probe_sizes_from_args(args, config.probe_sizes);
  config.stop_when_idle = args.get("stop-when-idle").has_value();

  net::ServerConfig server_config;
  server_config.unix_path = args.get_or("unix", "");
  server_config.tcp_port = args.get_uint_or<std::uint16_t>("port", 0);

  // Server first so the socket is already listening while a cold fit
  // calibrates -- coordinators retry their connect until then.
  net::Server server(server_config);
  cluster::ClusterWorker worker(interest, hazard, std::move(config));

  if (!server_config.unix_path.empty()) {
    std::cout << "cluster worker on unix:" << server.unix_path() << '\n';
  } else {
    std::cout << "cluster worker on tcp port " << server.tcp_port() << '\n';
  }
  std::cout << "  engine " << worker.fit().engine_name << " ("
            << (worker.risk_mode() ? "risk" : "price") << " mode), fit "
            << with_thousands(worker.fit().options_per_second, 0)
            << " options/s + " << fixed(worker.fit().setup_seconds * 1e6, 1)
            << " us setup, " << fixed(worker.fit().watts, 1) << " W\n";

  server.run(worker);

  const auto& stats = worker.stats();
  std::cout << "served " << stats.probes << " probe(s), " << stats.shards
            << " shard(s) (" << stats.options << " option(s)), "
            << stats.rejects << " reject(s), " << stats.connections_poisoned
            << " poisoned connection(s)\n";
  return 0;
}

int cmd_cluster_price(const Args& args) {
  const auto book = load_book(args);
  const bool risk = args.get("risk").has_value();
  const auto nodes_arg = args.get("nodes");
  CDSFLOW_EXPECT(nodes_arg.has_value() && !nodes_arg->empty(),
                 "--nodes unix:/path[,...] or host:port[,...] is required");

  cluster::CoordinatorConfig config;
  config.shard_size = args.get_uint_or<std::size_t>("shard-size", 0);
  config.deadline_seconds = args.get_double_or("deadline-s", 3600.0);
  CDSFLOW_EXPECT(config.deadline_seconds > 0.0, "--deadline-s must be > 0");
  config.risk = risk;
  const double connect_timeout = args.get_double_or("connect-timeout-s", 5.0);
  const double bandwidth = args.get_double_or("bandwidth", 1.0e9);
  CDSFLOW_EXPECT(bandwidth > 0.0, "--bandwidth must be > 0");

  for (const auto& field : split_fields(*nodes_arg, "--nodes")) {
    cluster::NodeSpec spec;
    spec.connect_timeout_seconds = connect_timeout;
    spec.link.bytes_per_second = bandwidth;
    if (field.rfind("unix:", 0) == 0) {
      spec.unix_path = field.substr(5);
      CDSFLOW_EXPECT(!spec.unix_path.empty(),
                     "--nodes unix: entry needs a path");
    } else {
      const std::size_t colon = field.rfind(':');
      CDSFLOW_EXPECT(colon != std::string::npos && colon + 1 < field.size(),
                     "--nodes entry '" + field +
                         "' is neither unix:/path nor host:port");
      spec.host = field.substr(0, colon);
      spec.tcp_port = parse_uint_strict<std::uint16_t>(
          field.substr(colon + 1), "--nodes port");
    }
    config.nodes.push_back(std::move(spec));
  }

  cluster::ClusterCoordinator coordinator(std::move(config));
  std::cout << "cluster of " << coordinator.nodes().size() << " node(s):\n";
  for (const auto& node : coordinator.nodes()) {
    std::cout << "  " << node.address << ": " << node.fit.engine_name
              << ", fit " << with_thousands(node.fit.options_per_second, 0)
              << " options/s + " << fixed(node.fit.setup_seconds * 1e6, 1)
              << " us setup, " << fixed(node.fit.watts, 1) << " W, link "
              << fixed(node.link.latency_seconds * 1e6, 1) << " us + "
              << with_thousands(node.link.bytes_per_second, 0) << " B/s\n";
  }

  const auto run = coordinator.price(book);
  std::cout << "plan: " << run.plan.n_shards << " shard(s) of "
            << run.shard_size << " (assignment";
  for (std::size_t k = 0; k < run.plan.shards_per_node.size(); ++k) {
    std::cout << (k == 0 ? " " : " / ") << run.plan.shards_per_node[k];
  }
  std::cout << "), projected " << fixed(run.plan.projected_seconds * 1e3, 3)
            << " ms\n";
  std::cout << "priced " << run.run.results.size() << " option(s) ("
            << (risk ? "risk" : "price") << " mode): modelled "
            << with_thousands(run.run.options_per_second, 0)
            << " options/s, wall "
            << with_thousands(run.wall_options_per_second, 0)
            << " options/s";
  if (run.resubmissions > 0 || run.nodes_lost > 0) {
    std::cout << "; " << run.nodes_lost << " node(s) lost, "
              << run.resubmissions << " shard(s) resubmitted";
  }
  std::cout << '\n';

  if (args.get("out")) {
    io::write_results_csv(*args.get("out"), run.run.results);
    std::cout << "results written to " << *args.get("out") << '\n';
  }

  if (args.get("verify")) {
    // Re-price locally on the engine the workers report and compare every
    // row bit for bit (assumes the workers serve the same curves).
    const auto [interest, hazard] = load_curves(args);
    runtime::RuntimeConfig local_config;
    local_config.engine = coordinator.nodes().front().fit.engine_name;
    local_config.workers = 1;
    runtime::PortfolioRuntime local(interest, hazard, local_config);
    const auto reference = local.price(book);
    bool identical = reference.run.results.size() == run.run.results.size() &&
                     reference.run.sensitivities.size() ==
                         run.run.sensitivities.size();
    for (std::size_t i = 0; identical && i < run.run.results.size(); ++i) {
      identical = reference.run.results[i].id == run.run.results[i].id &&
                  std::bit_cast<std::uint64_t>(
                      reference.run.results[i].spread_bps) ==
                      std::bit_cast<std::uint64_t>(
                          run.run.results[i].spread_bps);
    }
    for (std::size_t i = 0; identical && i < run.run.sensitivities.size();
         ++i) {
      const auto& a = reference.run.sensitivities[i];
      const auto& b = run.run.sensitivities[i];
      identical =
          std::bit_cast<std::uint64_t>(a.cs01) ==
              std::bit_cast<std::uint64_t>(b.cs01) &&
          std::bit_cast<std::uint64_t>(a.ir01) ==
              std::bit_cast<std::uint64_t>(b.ir01) &&
          std::bit_cast<std::uint64_t>(a.rec01) ==
              std::bit_cast<std::uint64_t>(b.rec01) &&
          std::bit_cast<std::uint64_t>(a.jtd) ==
              std::bit_cast<std::uint64_t>(b.jtd);
    }
    std::cout << "verify vs local " << local_config.engine << ": "
              << (identical ? "bit-identical" : "MISMATCH") << '\n';
    if (!identical) {
      return 1;
    }
  }
  return 0;
}

int cmd_build_info(const Args&) {
  // Machine-readable build provenance, one key=value per line. CI guards
  // parse this: scripts/cluster_smoke.sh refuses to certify a clang build
  // whose thread-safety annotations were compiled out (a silently
  // unchecked locking discipline), and the lint job records the compiler
  // the binaries under test were built with.
#if defined(__clang__)
  std::cout << "compiler=clang\n"
            << "compiler_version=" << __clang_major__ << '.'
            << __clang_minor__ << '\n';
#elif defined(__GNUC__)
  std::cout << "compiler=gcc\n"
            << "compiler_version=" << __GNUC__ << '.' << __GNUC_MINOR__
            << '\n';
#else
  std::cout << "compiler=unknown\ncompiler_version=0.0\n";
#endif
#if defined(CDSFLOW_THREAD_SAFETY_ANNOTATED)
  std::cout << "thread_safety_annotations=on\n";
#else
  std::cout << "thread_safety_annotations=off\n";
#endif
#if defined(NDEBUG)
  std::cout << "assertions=off\n";
#else
  std::cout << "assertions=on\n";
#endif
  return 0;
}

/// One command: its name, every flag it reads (Args rejects the rest) and
/// its entry point.
struct Command {
  std::string_view name;
  std::vector<std::string_view> flags;
  int (*run)(const Args&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"price",
       {"engine", "count", "seed", "portfolio", "curve-interest",
        "curve-hazard", "out", "workers", "shard-size", "auto-plan",
        "deadline-s", "probe-sizes"},
       cmd_price},
      {"risk",
       {"engine", "count", "seed", "portfolio", "curve-interest",
        "curve-hazard", "out", "workers", "shard-size", "auto-plan",
        "deadline-s", "probe-sizes", "bump", "ladder"},
       cmd_risk},
      {"stream",
       {"engine", "count", "seed", "rate", "max-batch", "max-wait-us",
        "deadline-us", "policy", "queue-capacity", "workers", "hazard-every",
        "hazard-scale", "tenors", "bump", "ladder", "curve-interest",
        "curve-hazard", "out", "batch-trace"},
       cmd_stream},
      {"sweep",
       {"scenarios", "kind", "shock-bp", "count", "seed", "tenors",
        "workers", "shard-size", "curve-interest", "curve-hazard",
        "portfolio", "out"},
       cmd_sweep},
      {"serve",
       {"unix", "port", "tenants", "risk-tenants", "engine", "lanes",
        "max-batch", "max-wait-us", "class", "ops-per-second", "setup-s",
        "stop-when-idle", "latency-cdf", "curve-interest", "curve-hazard"},
       cmd_serve},
      {"client-replay",
       {"unix", "host", "port", "tenant", "events", "request-size",
        "hazard-every", "risk", "seed", "tenors", "out", "curve-hazard"},
       cmd_client_replay},
      {"cluster-worker",
       {"unix", "port", "engine", "workers", "shard-size", "ops-per-second",
        "setup-s", "watts", "probe-sizes", "stop-when-idle",
        "curve-interest", "curve-hazard"},
       cmd_cluster_worker},
      {"cluster-price",
       {"nodes", "count", "seed", "portfolio", "risk", "shard-size",
        "deadline-s", "connect-timeout-s", "bandwidth", "verify", "out",
        "curve-interest", "curve-hazard"},
       cmd_cluster_price},
      {"bootstrap", {"quotes", "out", "curve-interest"}, cmd_bootstrap},
      {"engines", {}, cmd_engines},
      {"device", {"engines", "lanes"}, cmd_device},
      {"build-info", {}, cmd_build_info},
  };
  return kCommands;
}

int usage() {
  std::cerr << "usage: cdsflow_cli <price|risk|stream|sweep|serve|"
               "client-replay|cluster-worker|cluster-price|bootstrap|"
               "engines|device|build-info> [--flag value ...]\n"
               "see the file header of tools/cdsflow_cli.cpp for details\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto& table = commands();
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Command& c) { return c.name == command; });
  if (it == table.end()) return usage();
  try {
    const Args args(argc, argv, 2, command, it->flags);
    return it->run(args);
  } catch (const cdsflow::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
