/// \file harness.hpp
/// Measurement plumbing shared by the benchmark's workloads: clocks, the
/// percentile rule, in-memory spans, the metric table and result emission.
///
/// Everything here measures the program from outside: the workloads call the
/// library's public APIs and time those calls; nothing under src/ is
/// instrumented.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);
/// User + system CPU of the whole process, seconds.
double process_cpu_seconds();
/// CPU of the calling thread, seconds.
double thread_cpu_seconds();
/// Peak resident set of the process since the last reset_peak_rss(), MiB.
double peak_rss_mb();
/// Resets the kernel's resident-set high-water mark to the current resident
/// set (/proc/self/clear_refs), so peak_rss_mb() covers only what follows.
/// False when the kernel refuses; the mark then keeps the whole process's
/// peak.
bool reset_peak_rss();

// --- percentile rule --------------------------------------------------------

/// A percentile is reported only when at least this many samples lie beyond
/// it; p99 therefore needs at least 1,000 samples.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, or nullopt when
/// fewer than kSamplesBeyond samples lie beyond it. +inf samples (failed
/// ops) sort last, so enough failures make the percentile infinite.
std::optional<double> percentile(std::vector<double> samples, double p);

/// The highest percentile that still has kSamplesBeyond samples beyond it,
/// with its value; nullopt below kSamplesBeyond + 1 samples.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};
std::optional<Tail> highest_supported(std::vector<double> samples);

/// Plain median (lower middle for even counts); for set-up repeats, which
/// are too few for the percentile rule. NaN for an empty sample, which the
/// result check then refuses to emit.
double median(std::vector<double> samples);

// --- spans ------------------------------------------------------------------

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// A span's self time: its length minus the part of it that the union of
/// `children` covers (children are clipped to the span; overlapping
/// children count once).
double self_time(Interval span, std::vector<Interval> children);

/// In-memory span log of one traced run. Times are seconds since the log's
/// epoch. A span's parent is the index of another span, or -1 for a root;
/// spans of one op share its op id.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int64_t parent = -1;
    unsigned lane = 0;
    Interval at;
  };

  SpanLog();

  double now() const;
  /// Records a finished span and returns its index.
  std::int64_t add(const char* name, std::uint64_t op, std::int64_t parent,
                   Interval at, unsigned lane = 0);
  /// Lays durations returned by the program out as children of `parent`:
  /// each duration goes to its lane, back to back from the parent's start,
  /// in submission order (the list schedule the runtimes report).
  void add_lane_children(const char* name, std::int64_t parent,
                         const std::vector<double>& seconds,
                         const std::vector<unsigned>& lanes);

  std::size_t size() const { return spans_.size(); }
  /// Self time of span `index` against its direct children.
  double self_seconds(std::int64_t index) const;
  /// Self times of every span called `name`.
  std::vector<double> self_seconds_of(const char* name) const;
  /// Writes the first kMaxWrittenSpans spans as Chrome trace-event JSON
  /// (open in Perfetto or chrome://tracing); metrics use every span.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;
  static constexpr std::size_t kMaxWrittenSpans = 50000;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::vector<std::int64_t>> children_;
};

// --- metrics ----------------------------------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// The benchmark's metric table; BENCHMARK.json declares the same names
/// (the self-test checks both directions).
const std::vector<MetricDecl>& end_to_end_metrics();
const std::vector<MetricDecl>& per_layer_metrics();
/// End-to-end figures every untraced run prints and records, with sample
/// counts, but does not emit as bounded metrics: on a host with steal time
/// their run-to-run spread exceeds the 25% a bound may allow (see
/// NOTES.md).
const std::vector<MetricDecl>& wall_clock_metrics();

struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;
  std::string note;
};

/// What one run of a workload produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output gates that failed; any entry fails the run.
  std::vector<std::string> gate_failures;
  /// Why the run's figures must not be reported (backlog, refused
  /// percentile); non-empty fails the run.
  std::string invalid;
  /// Lines printed before the result (gate sample counts, sizes).
  std::vector<std::string> info;

  void set(const std::string& name, double value, std::size_t samples,
           std::string note = "");
  void gate(bool ok, const std::string& what);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for trace dumps and result records.
  std::string out_dir = ".bench_results";
};

// --- shared measurement helpers -------------------------------------------

/// Set-up time sampled across the run rather than in one burst, so one
/// slow stretch of the host does not decide the run's figure. `construct`
/// builds the object up to ready, returns the construction seconds and tears
/// it down untimed. Workloads call tick() between ops (outside the timed
/// windows); it samples once per `interval_s`.
class SetupSampler {
 public:
  SetupSampler(std::function<double()> construct, double interval_s)
      : construct_(std::move(construct)), interval_s_(interval_s) {}

  void tick();
  void sample() { samples_.push_back(construct_()); }
  /// Median of the samples, topped up to kMinSamples first.
  double median_seconds();
  std::size_t samples() const { return samples_.size(); }

  static constexpr std::size_t kMinSamples = 11;

 private:
  std::function<double()> construct_;
  double interval_s_;
  Clock::time_point last_ = Clock::now();
  std::vector<double> samples_;
};

/// Latency samples and CPU of a measured window.
struct Window {
  std::vector<double> latency_s;  ///< per op; +inf for a failed op
  double busy_s = 0.0;            ///< summed op wall time
  double cpu_s = 0.0;             ///< process CPU inside the window
  /// Peak resident set inside the timed windows: the mark is reset before
  /// each op and read right after it, before any gate or direct call.
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Adds latency_p50_ms from `w` to `out`, and prints the tail: p99 when the
/// window holds at least 1,000 ops, else the highest supported percentile.
/// A p50 that is refused or infinite (failed ops) invalidates the run.
void report_latency(const Window& w, Outcome& out);

/// Writes `log` to <out_dir>/trace-<workload>-seed<n>.json and notes where.
void write_trace(const SpanLog& log, const Options& opts, Outcome& out);

/// A fresh unix-socket path under .bench_run/ (relative, so it stays short
/// whatever the checkout's path; the directory is created on first use).
std::string unix_socket_path(const std::string& tag);

/// Runs the workload named in `opts` and returns its outcome.
Outcome run_workload(const Options& opts);

/// True when this binary may emit metrics (Release, no sanitizer); `why`
/// explains a refusal.
bool benchmarkable_build(std::string* why);

/// One-line JSON provenance record of this binary and run.
std::string provenance_json(const Options& opts);

/// Prints the human table and the final result line; returns the exit code.
int emit(const Options& opts, const Outcome& outcome);

}  // namespace perfbench
