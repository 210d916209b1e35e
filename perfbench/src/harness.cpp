#include "harness.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "cds/vector_kernel.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

namespace {

double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() { return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;  // 5: reset the peak RSS mark
  ::close(fd);
  return ok;
}

// --- percentile rule ---------------------------------------------------------

namespace {

/// 0-based nearest-rank index of percentile p in n sorted samples.
std::size_t rank_index(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<std::size_t>(std::max(1.0, rank)) - 1;
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 100.0)) return std::nullopt;
  const std::size_t n = samples.size();
  const std::size_t idx = std::min(rank_index(n, p), n - 1);
  if (n - 1 - idx < kSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

std::optional<Tail> highest_supported(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < kSamplesBeyond + 1) return std::nullopt;
  const std::size_t idx = n - 1 - kSamplesBeyond;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return Tail{100.0 * static_cast<double>(idx + 1) / static_cast<double>(n),
              samples[idx]};
}

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t idx = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

// --- spans -----------------------------------------------------------------

double self_time(Interval span, std::vector<Interval> children) {
  for (auto& c : children) {
    c.begin = std::max(c.begin, span.begin);
    c.end = std::min(c.end, span.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double covered = 0.0;
  double reach = span.begin;
  for (const auto& c : children) {
    if (c.end <= c.begin) continue;
    const double from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return std::max(0.0, (span.end - span.begin) - covered);
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double SpanLog::now() const { return seconds_since(epoch_); }

std::int64_t SpanLog::add(const char* name, std::uint64_t op,
                          std::int64_t parent, Interval at, unsigned lane) {
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, op, parent, lane, at});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(index);
  return index;
}

void SpanLog::add_lane_children(const char* name, std::int64_t parent,
                                const std::vector<double>& seconds,
                                const std::vector<unsigned>& lanes) {
  const Span root = spans_[static_cast<std::size_t>(parent)];
  std::vector<double> lane_end;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    const unsigned lane = lanes[i];
    if (lane >= lane_end.size()) lane_end.resize(lane + 1, root.at.begin);
    const double begin = lane_end[lane];
    lane_end[lane] = begin + seconds[i];
    add(name, root.op, parent, {begin, lane_end[lane]}, lane + 1);
  }
}

double SpanLog::self_seconds(std::int64_t index) const {
  std::vector<Interval> kids;
  for (const auto child : children_[static_cast<std::size_t>(index)]) {
    kids.push_back(spans_[static_cast<std::size_t>(child)].at);
  }
  return self_time(spans_[static_cast<std::size_t>(index)].at, std::move(kids));
}

std::vector<double> SpanLog::self_seconds_of(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string(spans_[i].name) == name) {
      out.push_back(self_seconds(static_cast<std::int64_t>(i)));
    }
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  out << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxWrittenSpans); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << s.at.begin * 1e6
        << ",\"dur\":" << (s.at.end - s.at.begin) * 1e6
        << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- metrics ---------------------------------------------------------------

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> table = {
      {"cpu_us_per_op", "us"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
  return table;
}

const std::vector<MetricDecl>& wall_clock_metrics() {
  static const std::vector<MetricDecl> table = {
      {"latency_p50_ms", "ms"},
      {"options_per_s", "1/s"},
      {"scenarios_per_s", "1/s"},
      {"error_ratio", "ratio"},
  };
  return table;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> table = {
      {"runtime.self_ms", "ms"},        {"runtime.modelled_ms", "ms"},
      {"runtime.shards", "count"},      {"runtime.lane_busy", "ratio"},
      {"runtime.scaling_eff", "ratio"}, {"runtime.sweep_self_ms", "ms"},
      {"runtime.stream_wait_us", "us"}, {"runtime.batch_events", "count"},
      {"engines.shard_ms", "ms"},       {"cds.tabulate_ms", "ms"},
      {"cds.combine_ms", "ms"},         {"cds.risk_ms", "ms"},
      {"cds.sweep_ms", "ms"},           {"cds.unique_grids", "count"},
      {"cds.dedup_ratio", "ratio"},     {"cds.shared_column_rate", "ratio"},
      {"cds.retab_ratio", "ratio"},     {"net.encode_us", "us"},
      {"net.decode_us", "us"},          {"net.bytes_per_op", "B"},
      {"service.latency_p50_us", "us"}, {"service.loop_wait_us", "us"},
      {"service.deferred", "count"},    {"service.shed", "count"},
      {"cluster.self_ms", "ms"},        {"cluster.engine_share", "ratio"},
      {"cluster.resubmissions", "count"}, {"gen.lag_p99_us", "us"},
      {"trace.overhead", "ratio"},      {"error_ratio", "ratio"},
  };
  return table;
}

void Outcome::set(const std::string& name, double value, std::size_t samples,
                  std::string note) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m = {name, value, samples, std::move(note)};
      return;
    }
  }
  metrics.push_back({name, value, samples, std::move(note)});
}

void Outcome::gate(bool ok, const std::string& what) {
  if (!ok) gate_failures.push_back(what);
}

void SetupSampler::tick() {
  if (seconds_since(last_) < interval_s_) return;
  sample();
  last_ = Clock::now();
}

double SetupSampler::median_seconds() {
  while (samples_.size() < kMinSamples) sample();
  return median(samples_);
}

void report_latency(const Window& w, Outcome& out) {
  const std::size_t n = w.latency_s.size();
  const auto p50 = percentile(w.latency_s, 50.0);
  if (!p50 || !std::isfinite(*p50)) {
    out.invalid = "latency p50 refused or infinite (n=" + std::to_string(n) + ")";
    return;
  }
  out.set("latency_p50_ms", *p50 * 1e3, n);
  std::ostringstream tail;
  tail << "latency tail (printed, not a bounded metric): ";
  if (const auto p99 = percentile(w.latency_s, 99.0)) {
    tail << "p99 " << *p99 * 1e3 << " ms";
  } else if (const auto t = highest_supported(w.latency_s)) {
    tail << "p" << std::fixed << std::setprecision(1) << t->percentile << " "
         << std::defaultfloat << t->value * 1e3 << " ms (p99 needs 1000 ops)";
  } else {
    tail << "none supported";
  }
  out.info.push_back(tail.str() + ", n=" + std::to_string(n));
}

void write_trace(const SpanLog& log, const Options& opts, Outcome& out) {
  const std::string path = opts.out_dir + "/trace-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
  out.info.push_back("spans: " + std::to_string(log.size()) + " written to " +
                     (log.write_chrome_trace(path) ? path : "(write failed)"));
}

std::string unix_socket_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  ::mkdir(".bench_run", 0755);
  return ".bench_run/" + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

// --- provenance ------------------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

namespace {

bool compiled_with_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool openmp_enabled() {
#ifdef CDSFLOW_HAVE_OPENMP
  return true;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

bool benchmarkable_build(std::string* why) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (build_type != "Release") {
    *why = "build type is '" + build_type + "', metrics need a Release build";
    return false;
  }
  if (compiled_with_sanitizer() || !(sanitize.empty() || sanitize == "OFF")) {
    *why = "sanitizer build (CDSFLOW_SANITIZE=" + sanitize + ")";
    return false;
  }
  return true;
}

std::string provenance_json(const Options& opts) {
  const char* simd_env = std::getenv("CDSFLOW_SIMD");
  std::ostringstream out;
  out << "{\"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
      << "\", \"sanitize\": \"" << json_escape(PERFBENCH_SANITIZE)
      << "\", \"openmp\": " << (openmp_enabled() ? "true" : "false")
      << ", \"simd_level\": \""
      << cdsflow::cds::simd::to_string(cdsflow::cds::simd::active_level())
      << "\", \"simd_detected\": \""
      << cdsflow::cds::simd::to_string(cdsflow::cds::simd::detect_level())
      << "\", \"cdsflow_simd_env\": \""
      << json_escape(simd_env != nullptr ? simd_env : "")
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"seed\": " << opts.seed << ", \"workload\": \""
      << json_escape(opts.workload) << "\", \"seconds\": " << opts.seconds
      << ", \"trace\": " << (opts.trace ? 1 : 0) << "}";
  return out.str();
}

namespace {

/// Appends `decls` from `outcome` to the table and to a JSON object body;
/// returns false (after saying why) when one is missing or not finite.
bool format_metrics(const std::vector<MetricDecl>& decls, const Outcome& outcome,
                    const char* tag, std::ostringstream& table,
                    std::ostringstream& json) {
  bool first = true;
  for (const auto& decl : decls) {
    const Metric* m = nullptr;
    for (const auto& candidate : outcome.metrics) {
      if (candidate.name == decl.name) m = &candidate;
    }
    if (m == nullptr || !std::isfinite(m->value)) {
      std::cout << "RUN INVALID: metric " << decl.name
                << (m == nullptr ? " not measured" : " is not finite") << '\n';
      return false;
    }
    table << "  " << std::left << std::setw(24) << decl.name << std::setw(14)
          << std::setprecision(6) << m->value << std::setw(7) << decl.unit
          << "n=" << std::setw(8) << m->samples << tag << m->note << '\n';
    json << (first ? "" : ", ") << "\"" << decl.name << "\": {\"value\": "
         << std::setprecision(17) << m->value << ", \"unit\": \"" << decl.unit
         << "\", \"samples\": " << m->samples << "}";
    first = false;
  }
  return true;
}

}  // namespace

int emit(const Options& opts, const Outcome& outcome) {
  for (const auto& line : outcome.info) std::cout << line << '\n';
  if (!outcome.gate_failures.empty()) {
    for (const auto& g : outcome.gate_failures) {
      std::cout << "GATE FAILED: " << g << '\n';
    }
    std::cout << "output gates failed; no metrics emitted\n";
    return 3;
  }
  if (!outcome.invalid.empty()) {
    std::cout << "RUN INVALID: " << outcome.invalid << "; no metrics emitted\n";
    return 4;
  }
  std::ostringstream table, metrics, printed;
  if (!format_metrics(opts.trace ? per_layer_metrics() : end_to_end_metrics(),
                      outcome, "", table, metrics) ||
      (!opts.trace && !format_metrics(wall_clock_metrics(), outcome,
                                      "(unbounded) ", table, printed))) {
    return 4;
  }
  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << (opts.trace ? " (traced run: per-layer metrics)"
                           : " (end-to-end metrics)")
            << '\n'
            << table.str() << "  ops attempted " << outcome.attempted
            << ", failed " << outcome.failed << '\n';
  std::cout << "RESULT {\"correct\": true, \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics.str() << "}, \"printed\": {" << printed.str()
            << "}, \"provenance\": " << provenance_json(opts) << "}"
            << std::endl;
  return 0;
}

}  // namespace perfbench
