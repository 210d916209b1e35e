/// \file workloads.hpp
/// The four workloads and the helpers they share: the closed-loop runner,
/// the seed-chosen gate sample and bit-for-bit comparisons.

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/risk.hpp"
#include "cds/types.hpp"
#include "common/rng.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {

Outcome run_intraday(const Options& opts);
Outcome run_eod(const Options& opts);
Outcome run_quotes(const Options& opts);
Outcome run_cluster(const Options& opts);

/// Seed-chosen sample of ops whose outputs the gates check against a
/// single-lane reference (checking every op would triple the run).
class GateSample {
 public:
  GateSample(std::uint64_t seed, double rate)
      : rng_(item_seed(seed, Stream::kGateSample, 0)), rate_(rate) {}
  bool pick() { return rng_.uniform01() < rate_; }

 private:
  cdsflow::Rng rng_;
  double rate_;
};

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline bool same_spreads(const std::vector<cds::SpreadResult>& a,
                         const std::vector<cds::SpreadResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !same_bits(a[i].spread_bps, b[i].spread_bps)) {
      return false;
    }
  }
  return true;
}

inline bool same_greeks(const std::vector<cds::Sensitivities>& a,
                        const std::vector<cds::Sensitivities>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].spread_bps, b[i].spread_bps) ||
        !same_bits(a[i].cs01, b[i].cs01) || !same_bits(a[i].ir01, b[i].ir01) ||
        !same_bits(a[i].rec01, b[i].rec01) || !same_bits(a[i].jtd, b[i].jtd)) {
      return false;
    }
  }
  return true;
}

inline bool same_values(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Output gate of the book-call workloads: the first call and a seed-chosen
/// sample are re-priced by a single-lane PortfolioRuntime over the whole
/// book and must match bit for bit. The single-lane times also give
/// runtime.scaling_eff.
class SingleLaneGate {
 public:
  SingleLaneGate(cdsflow::runtime::PortfolioRuntime& single, std::uint64_t seed,
                 double rate)
      : single_(single), sample_(seed, rate) {}

  void check(const std::vector<cds::CdsOption>& book,
             const std::vector<cds::SpreadResult>& results, double latency) {
    if (checked_ != 0 && !sample_.pick()) return;
    ++checked_;
    const auto t0 = Clock::now();
    const auto ref = single_.price(book);
    ref_seconds_ += seconds_since(t0);
    par_seconds_ += latency;
    if (!same_spreads(results, ref.run.results)) ++mismatched_;
  }

  /// Single-lane time / (lanes x parallel time) over the checked calls.
  double scaling_eff(double lanes) const {
    return ref_seconds_ / (lanes * par_seconds_);
  }
  std::size_t checked() const { return checked_; }

  void report(const std::string& workload, Outcome& out) const {
    out.info.push_back("gate: " + std::to_string(checked_) +
                       " calls (the first and a seed-chosen sample) checked "
                       "bit-for-bit against a single-lane run, " +
                       std::to_string(mismatched_) + " mismatched");
    out.gate(mismatched_ == 0 && checked_ > 0,
             workload + " spreads differ from the single-lane run");
  }

 private:
  cdsflow::runtime::PortfolioRuntime& single_;
  GateSample sample_;
  std::size_t checked_ = 0;
  std::size_t mismatched_ = 0;
  double ref_seconds_ = 0.0;
  double par_seconds_ = 0.0;
};

/// One caller making back-to-back ops. Each op's input is built before its
/// timed window; `after` (gates, traced direct calls) runs right after the
/// op, outside it and outside the window's peak resident set. Warm-up ops
/// run first and are not recorded. The window closes once the timed ops add
/// up to `seconds` and at least `min_ops` were attempted. A throwing op counts as failed and infinitely late.
template <class MakeInput, class Call, class After>
Window closed_loop(double seconds, std::size_t min_ops, std::size_t warmup_ops,
                   std::uint64_t& next_index, MakeInput make_input, Call call,
                   After after) {
  for (std::size_t k = 0; k < warmup_ops; ++k) {
    const auto input = make_input(next_index++);
    call(input);
  }
  Window w;
  while (w.busy_s < seconds || w.attempted < min_ops) {
    const std::uint64_t index = next_index++;
    const auto input = make_input(index);
    reset_peak_rss();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::optional<decltype(call(input))> result;
    try {
      result.emplace(call(input));
    } catch (const std::exception&) {
    }
    const double latency = seconds_since(t0);
    w.cpu_s += process_cpu_seconds() - cpu0;
    w.peak_rss_mb = std::max(w.peak_rss_mb, peak_rss_mb());
    w.busy_s += latency;
    ++w.attempted;
    if (!result) {
      ++w.failed;
      w.latency_s.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    w.latency_s.push_back(latency);
    after(input, *result, index, latency);
  }
  return w;
}

inline double error_ratio(const Outcome& out) {
  return out.attempted == 0 ? 0.0
                            : static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted);
}

/// Fills the set-up, CPU, RSS and latency metrics every workload reports.
inline void report_common(const Window& w, SetupSampler& setup, Outcome& out) {
  out.attempted = w.attempted;
  out.failed = w.failed;
  report_latency(w, out);
  out.set("cpu_us_per_op",
          w.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, w.attempted)),
          w.attempted);
  const double setup_s = setup.median_seconds();
  out.set("setup_s", setup_s, setup.samples(),
          "median of repeated constructions");
  out.set("peak_rss_mb", w.peak_rss_mb, w.attempted,
          "VmHWM inside the timed windows");
  if (!reset_peak_rss()) {
    out.info.push_back("peak_rss_mb: /proc/self/clear_refs refused, so it is "
                       "the whole process's peak");
  }
  out.set("error_ratio", error_ratio(out), w.attempted,
          "failed, shed, rejected or unanswered ops");
}

/// Per-layer metrics no traced run of a workload measures are reported as 0
/// (the layer does no work on that workload's path).
inline void zero_unmeasured_layers(Outcome& out) {
  for (const auto& decl : per_layer_metrics()) {
    bool present = false;
    for (const auto& m : out.metrics) present = present || m.name == decl.name;
    if (!present) out.set(decl.name, 0.0, 0, "not on this workload's path");
  }
  out.set("error_ratio", error_ratio(out), out.attempted,
          "failed, shed, rejected or unanswered ops");
}

/// Items per second of the median op: throughput on a closed loop, robust
/// to the host stalls that make the mean swing from run to run.
inline double per_second_of_median_op(const Window& w, double items_per_op) {
  return items_per_op / median(w.latency_s);
}

/// Direct calls into the cds layer on an op's own book, warm: one untimed
/// price() (which also gives the dedup counts), then the kernel's two
/// passes timed back to back: build_grids() (dedup + tabulation) and the
/// per-option combine over the grids it built.
struct CdsSplit {
  double tabulate_s = 0.0;
  double combine_s = 0.0;
  cds::BatchStats stats;
};

inline CdsSplit measure_cds(const cds::BatchPricer& pricer,
                            const std::vector<cds::CdsOption>& book,
                            cds::BatchPricer::Workspace& ws,
                            std::vector<cds::SpreadResult>& out, SpanLog& log,
                            std::uint64_t op) {
  out.resize(book.size());
  CdsSplit split;
  split.stats = pricer.price(book, out, ws);
  const double d0 = log.now();
  ws.clear();
  pricer.build_grids(book, ws);
  const double d1 = log.now();
  cds::simd::combine_spreads(book, ws.grid_of, ws.grid_annuity, ws.grid_payoff,
                             out, pricer.kernel_level());
  const double d2 = log.now();
  log.add("cds.build_grids", op, -1, {d0, d1});
  log.add("cds.combine", op, -1, {d1, d2});
  split.tabulate_s = d1 - d0;
  split.combine_s = d2 - d1;
  return split;
}

inline double dedup_ratio(const cds::BatchStats& stats) {
  return static_cast<double>(stats.grid_points) /
         static_cast<double>(stats.scalar_points);
}

inline double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace perfbench
