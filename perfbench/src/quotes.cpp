/// \file quotes.cpp
/// `quotes`: open loop. Poisson arrivals at a fixed 2,000 requests/s over two
/// unix-socket connections to an in-process net::Server plus PricingService.
/// Tenant 1 prices at the interactive class; tenant 2 streams Greeks with a
/// 6-bucket ladder at the standard class. Each tenant has one lane and a
/// pinned admission fit (calibrated fits are unstable, see NOTES.md). Each
/// request carries 32 standard-tenor options; each tenant gets a
/// hazard-quote update every 64 requests. Latency runs from each request's
/// due time to its response. With 5 shared grids the kernel is cheap, so
/// the codec, poll loop, admission, ingest queue and micro-batcher dominate.
/// The run is one service session: a warm-up stretch, then the measured
/// window, so whatever grows with the session's age shows in the figures.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/stream_runtime.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace net = cdsflow::net;
namespace runtime = cdsflow::runtime;
namespace service = cdsflow::service;
namespace workload = cdsflow::workload;

constexpr std::size_t kTenants = 2;
constexpr double kRatePerTenant = 1000.0;  // 2,000 requests/s in total
/// Pacing sleeps until this close to the due time, then spins.
constexpr double kSpinSeconds = 100e-6;
/// Responses still missing this long after the last due time are failed.
constexpr double kDrainSeconds = 5.0;
/// The session's first stretch, sent on schedule but not measured.
constexpr double kWarmupSeconds = 0.5;
/// Schedule index of the untraced reference session of a traced run.
constexpr std::uint64_t kReferenceSession = 1;
/// Set-up samples taken before and after the session.
constexpr int kSetupSamples = 30;
const std::vector<double> kLadderEdges = {0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0};

runtime::StreamConfig tenant_stream(std::size_t tenant) {
  runtime::StreamConfig stream;
  stream.engine = tenant == 1 ? "cpu-vec" : "cpu-vec-risk";
  stream.lanes = 1;
  if (tenant == 2) stream.ladder_edges = kLadderEdges;
  return stream;
}

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  for (std::size_t t = 1; t <= kTenants; ++t) {
    service::TenantSpec spec;
    spec.id = static_cast<std::uint32_t>(t);
    spec.name = t == 1 ? "desk" : "risk";
    spec.deadline = *service::find_deadline_class(t == 1 ? "interactive"
                                                         : "standard");
    spec.stream = tenant_stream(t);
    // Pinned per-lane fits: a cost well above the measured one, so a request
    // is projected to finish long before its deadline at this rate.
    spec.fit.engine_name = spec.stream.engine;
    spec.fit.watts = 1.0;
    spec.fit.setup_seconds = t == 1 ? 20e-6 : 60e-6;
    spec.fit.options_per_second = t == 1 ? 2e6 : 4e5;
    config.tenants.push_back(std::move(spec));
  }
  return config;
}

/// The service under test, up to ready: server, service, loop thread and
/// one client connection per tenant.
struct Stack {
  std::string path = unix_socket_path("q");
  net::Server server{net::ServerConfig{path}};
  service::PricingService pricing;
  std::thread loop;
  std::vector<net::Client> clients;

  explicit Stack(const Market& m) : pricing(service_config(), m.interest, m.hazard) {
    loop = std::thread([this] { server.run(pricing); });
    try {
      for (std::size_t t = 0; t < kTenants; ++t) {
        clients.push_back(net::Client::connect_unix(path));
      }
    } catch (...) {
      stop();  // the destructor does not run for a throwing constructor
      throw;
    }
  }
  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void stop() {
    for (auto& c : clients) c.close();
    if (loop.joinable()) {
      server.stop();
      loop.join();
    }
  }
};

/// What one open-loop session measured, per tenant in request order.
/// Requests due before `warmup_s` are served but not measured.
struct Session {
  double warmup_s = 0.0;
  std::vector<std::vector<double>> due_s, sent_s, done_s;  // per request
  std::vector<std::vector<bool>> answered;                 // kResult received
  std::vector<std::vector<std::vector<cds::SpreadResult>>> results;
  std::vector<std::vector<std::vector<cds::Sensitivities>>> greeks;
  std::vector<double> lag_s;  // per measured message sent
  double cpu_s = 0.0;  // measured window: process CPU minus the generator's
  double peak_rss_mb = 0.0;  // measured window
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> latency_s;  // per measured request; +inf when failed
  double window_s = 0.0;          // warm-up end to last response
  bool backlog = false;
  std::string backlog_detail;
  service::ServiceStats stats;
  std::vector<double> service_latency_us;
};

void wait_until(Clock::time_point due) {
  const auto spin_from =
      due - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kSpinSeconds));
  if (Clock::now() < spin_from) std::this_thread::sleep_until(spin_from);
  while (Clock::now() < due) {
  }
}

/// Requests outstanding (sent, not answered) at evenly spaced instants of
/// the measured send window. A queue that keeps growing shows as a higher
/// median in the second half than in the first; a single host stall moves a
/// few instants and not the medians.
void detect_backlog(Session& s, double last_due) {
  constexpr int kPoints = 40;
  std::vector<double> first, second;
  for (int k = 1; k <= kPoints; ++k) {
    const double t = s.warmup_s + (last_due - s.warmup_s) * k / kPoints;
    double outstanding = 0.0;
    for (std::size_t tn = 0; tn < s.sent_s.size(); ++tn) {
      for (std::size_t r = 0; r < s.sent_s[tn].size(); ++r) {
        if (s.sent_s[tn][r] <= t && !(s.done_s[tn][r] <= t)) outstanding += 1.0;
      }
    }
    (k <= kPoints / 2 ? first : second).push_back(outstanding);
  }
  const double growth = median(second) - median(first);
  const double limit = std::max(100.0, 0.01 * static_cast<double>(s.attempted));
  s.backlog = growth > limit;
  s.backlog_detail = "median outstanding grew by " + std::to_string(growth) +
                     " from the first to the second half (limit " +
                     std::to_string(limit) + ")";
}

/// CPU of a running thread, seconds; NaN when it has already exited.
double running_thread_cpu_seconds(std::thread& thread) {
  clockid_t clock{};
  timespec ts{};
  if (::pthread_getcpuclockid(thread.native_handle(), &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Session run_session(const Market& m,
                    const std::vector<std::vector<QuoteStep>>& plan,
                    double warmup_s) {
  Session s;
  s.warmup_s = warmup_s;
  const std::size_t n = plan.size();
  s.due_s.resize(n);
  s.sent_s.resize(n);
  s.done_s.resize(n);
  s.answered.resize(n);
  s.results.resize(n);
  s.greeks.resize(n);
  double last_due = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    for (const auto& step : plan[t]) {
      last_due = std::max(last_due, step.due_s);
      if (step.quote) continue;
      s.due_s[t].push_back(step.due_s);
    }
    const std::size_t requests = s.due_s[t].size();
    s.sent_s[t].assign(requests, std::numeric_limits<double>::infinity());
    s.done_s[t].assign(requests, std::numeric_limits<double>::infinity());
    s.answered[t].assign(requests, false);
    s.results[t].resize(requests);
    s.greeks[t].resize(requests);
  }

  Stack stack(m);
  std::vector<double> gen_cpu(2 * n, 0.0);  // each thread's CPU at its exit
  std::vector<std::vector<double>> lags(n);
  std::atomic<bool> give_up{false};
  std::size_t total = 0;
  for (const auto& d : s.due_s) total += d.size();
  std::atomic<std::size_t> unanswered{total};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {  // sender
      std::size_t r = 0;
      try {
        for (const auto& step : plan[t]) {
          wait_until(at(step.due_s));
          const double sent = seconds_since(start);
          if (step.due_s >= warmup_s) lags[t].push_back(sent - step.due_s);
          stack.clients[t].send(step.frame);
          if (!step.quote) s.sent_s[t][r++] = sent;
        }
      } catch (const std::exception&) {
        // A broken connection: the requests not sent stay unanswered and
        // count as failed.
      }
      gen_cpu[2 * t] = thread_cpu_seconds();
    });
    threads.emplace_back([&, t] {  // receiver
      std::size_t remaining = s.due_s[t].size();
      while (remaining > 0 && !give_up.load()) {
        std::optional<net::Frame> frame;
        try {
          frame = stack.clients[t].read_frame_for(100000);
        } catch (const std::exception&) {
          break;  // server closed: what is missing counts as failed
        }
        if (!frame) continue;
        const double done = seconds_since(start);
        const std::size_t r = frame->request - 1;
        if (r >= s.due_s[t].size() || s.done_s[t][r] <= done) continue;
        s.done_s[t][r] = done;
        --remaining;
        --unanswered;
        if (frame->type == net::FrameType::kResult) {
          s.answered[t][r] = true;
          s.results[t][r] = frame->results;
          s.greeks[t][r] = frame->greeks;
        }
      }
      gen_cpu[2 * t + 1] = thread_cpu_seconds();
    });
  }
  // The measured window opens when the warm-up stretch ends: CPU and the
  // resident-set mark from here on, less the load generator's own CPU.
  std::this_thread::sleep_until(at(warmup_s));
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  std::vector<double> gen_cpu0(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    gen_cpu0[i] = running_thread_cpu_seconds(threads[i]);
  }
  // Senders finish on schedule; receivers get a bounded drain.
  for (std::size_t t = 0; t < n; ++t) threads[2 * t].join();
  const auto drain_deadline = at(last_due + kDrainSeconds);
  while (unanswered.load() > 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  give_up = true;
  for (std::size_t t = 0; t < n; ++t) threads[2 * t + 1].join();
  const double cpu1 = process_cpu_seconds();
  s.peak_rss_mb = peak_rss_mb();
  double generator_cpu = 0.0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    // A thread that had already exited spent nothing in the window.
    if (!std::isnan(gen_cpu0[i])) generator_cpu += gen_cpu[i] - gen_cpu0[i];
  }
  s.cpu_s = cpu1 - cpu0 - generator_cpu;
  stack.stop();

  s.stats = stack.pricing.stats();
  for (std::size_t t = 1; t <= n; ++t) {
    // In admission order: the warm-up requests come first.
    const auto& latency = stack.pricing.session(static_cast<std::uint32_t>(t))
                              ->latency_us();
    const auto warmup = static_cast<std::ptrdiff_t>(std::min(
        latency.size(), static_cast<std::size_t>(std::count_if(
                            s.due_s[t - 1].begin(), s.due_s[t - 1].end(),
                            [&](double due) { return due < warmup_s; }))));
    s.service_latency_us.insert(s.service_latency_us.end(),
                                latency.begin() + warmup, latency.end());
  }
  for (std::size_t t = 0; t < n; ++t) {
    s.lag_s.insert(s.lag_s.end(), lags[t].begin(), lags[t].end());
    for (std::size_t r = 0; r < s.due_s[t].size(); ++r) {
      if (s.due_s[t][r] < warmup_s) continue;
      ++s.attempted;
      if (s.answered[t][r]) {
        s.latency_s.push_back(s.done_s[t][r] - s.due_s[t][r]);
      } else {
        ++s.failed;
        s.latency_s.push_back(std::numeric_limits<double>::infinity());
      }
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t r = 0; r < s.done_s[t].size(); ++r) {
      if (s.answered[t][r]) {
        s.window_s = std::max(s.window_s, s.done_s[t][r] - warmup_s);
      }
    }
  }
  detect_backlog(s, last_due);
  return s;
}

/// Replays tenant `t`'s admitted events through a StreamRuntime driven
/// directly; `paced` plays them at their due times.
runtime::StreamReport direct_replay(const Market& m,
                                    const std::vector<QuoteStep>& steps,
                                    const std::vector<bool>& answered,
                                    std::size_t tenant, bool paced) {
  std::vector<workload::QuoteFeedEvent> feed;
  std::size_t r = 0;
  for (const auto& step : steps) {
    if (step.quote) {
      workload::QuoteFeedEvent e;
      e.kind = workload::QuoteFeedEvent::Kind::kHazardQuote;
      e.offset_seconds = paced ? step.due_s : 0.0;
      e.knot = step.knot;
      e.rate = step.rate;
      feed.push_back(e);
      continue;
    }
    if (!answered[r++]) continue;  // refused requests never entered the stream
    for (const auto& option : step.options) {
      workload::QuoteFeedEvent e;
      e.offset_seconds = paced ? step.due_s : 0.0;
      e.option = option;
      feed.push_back(e);
    }
  }
  runtime::StreamRuntime direct(m.interest, m.hazard, tenant_stream(tenant));
  return direct.play(feed);
}

/// One session of the open loop: a fresh service stack serving its own
/// schedule (warm-up included), and the direct replays its responses are
/// checked against.
struct SessionRun {
  std::vector<std::vector<QuoteStep>> plan;
  Session s;
  std::vector<runtime::StreamReport> replays;
};

SessionRun run_checked_session(const Market& m, std::uint64_t seed,
                               std::uint64_t index, double seconds, bool paced,
                               Outcome& out) {
  SessionRun run;
  // Schedule, feeds and frames are built before any timing.
  run.plan = quote_plan(seed, m.hazard, kWarmupSeconds + seconds,
                        kRatePerTenant, kTenants, index);
  run.s = run_session(m, run.plan, kWarmupSeconds);
  run.replays.resize(kTenants);
  std::vector<std::exception_ptr> failures(kTenants);
  std::vector<std::thread> replay_threads;
  for (std::size_t t = 0; t < kTenants; ++t) {
    replay_threads.emplace_back([&, t] {
      try {
        run.replays[t] =
            direct_replay(m, run.plan[t], run.s.answered[t], t + 1, paced);
      } catch (...) {
        failures[t] = std::current_exception();
      }
    });
  }
  for (auto& th : replay_threads) th.join();
  for (const auto& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  // Gate: every tenant's responses, concatenated in request order, are
  // bit-identical to a StreamRuntime driven directly with the same admitted
  // events in the same order.
  for (std::size_t t = 0; t < kTenants; ++t) {
    std::vector<cds::SpreadResult> spreads;
    std::vector<cds::Sensitivities> greeks;
    for (std::size_t r = 0; r < run.s.results[t].size(); ++r) {
      spreads.insert(spreads.end(), run.s.results[t][r].begin(),
                     run.s.results[t][r].end());
      greeks.insert(greeks.end(), run.s.greeks[t][r].begin(),
                    run.s.greeks[t][r].end());
    }
    out.gate(same_spreads(spreads, run.replays[t].run.results),
             "tenant " + std::to_string(t + 1) +
                 " spreads differ from the direct StreamRuntime replay");
    out.gate(t + 1 != 2 || same_greeks(greeks, run.replays[t].run.sensitivities),
             "tenant 2 Greeks differ from the direct StreamRuntime replay");
  }
  if (run.s.backlog) out.invalid = "backlog: " + run.s.backlog_detail;
  return run;
}

/// Traced-run figures of the measured session.
struct LayerTotals {
  SpanLog log;
  std::uint64_t op = 0;
  double encode_s = 0.0, decode_s = 0.0, bytes = 0.0;
  std::size_t coded = 0;
  double deferred = 0.0, shed = 0.0;
  std::vector<double> stream_wait_s;  // per tenant replay
  double events = 0.0, batches = 0.0, retab = 0.0, full = 0.0;

  void add(const SessionRun& run, Outcome& out) {
    const Session& s = run.s;
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (std::size_t r = 0; r < s.due_s[t].size(); ++r, ++op) {
        if (!s.answered[t][r] || s.due_s[t][r] < s.warmup_s) continue;
        const auto root = log.add("quotes.request", op, -1,
                                  {s.due_s[t][r], s.done_s[t][r]}, t + 1);
        log.add("gen.lag", op, root, {s.due_s[t][r], s.sent_s[t][r]}, t + 1);
      }
      // Direct codec calls on this tenant's own measured frames.
      std::size_t r = 0;
      for (const auto& step : run.plan[t]) {
        if (step.due_s < s.warmup_s) {
          r += step.quote ? 0 : 1;
          continue;
        }
        bytes += static_cast<double>(step.frame.size());
        if (step.quote || !s.answered[t][r++]) continue;
        const auto tenant = static_cast<std::uint32_t>(t + 1);
        const auto e0 = Clock::now();
        const auto request = net::encode_price_request(tenant, step.request,
                                                       step.options, tenant == 2);
        const auto response =
            net::encode_result(tenant, step.request, net::kResultOnTime,
                               s.results[t][r - 1], s.greeks[t][r - 1]);
        const auto e1 = Clock::now();
        net::FrameReader reader;
        reader.feed(request.data(), request.size());
        const auto a = reader.next();
        reader.feed(response.data(), response.size());
        const auto b = reader.next();
        const auto e2 = Clock::now();
        out.gate(a.has_value() && b.has_value(), "codec round trip failed");
        encode_s += seconds_between(e0, e1);
        decode_s += seconds_between(e1, e2);
        bytes += static_cast<double>(response.size());
        ++coded;
      }
    }
    deferred += static_cast<double>(s.stats.deferred);
    shed += static_cast<double>(s.stats.shed);
    for (const auto& report : run.replays) {
      // The replay's micro-batches as children of one span per replay; the
      // replay has one lane, so they lie back to back.
      std::vector<double> pricing;
      for (const auto& batch : report.batches) pricing.push_back(batch.pricing_seconds);
      const double end = log.now();
      const auto root =
          log.add("stream.replay", op++, -1, {end - report.wall_seconds, end});
      log.add_lane_children("stream.batch", root, pricing,
                            std::vector<unsigned>(pricing.size(), 0));
      stream_wait_s.push_back(report.p50_latency_seconds - median(pricing));
      events += static_cast<double>(report.events_priced);
      batches += static_cast<double>(report.batches.size());
      retab += static_cast<double>(report.grids_retabulated);
      full += static_cast<double>(report.full_rebuild_grids);
    }
  }
};

}  // namespace

Outcome run_quotes(const Options& opts) {
  const Market m = market(opts.seed);
  Outcome out;
  SetupSampler setup(
      [&] {
        const auto t0 = Clock::now();
        const Stack stack(m);
        return seconds_since(t0);
      },
      0.0);

  // A traced run first serves an untraced reference session of the same
  // length, for trace.overhead: figures grow with a session's age, so a
  // shorter reference would not compare.
  std::vector<double> plain_latency;
  if (opts.trace) {
    plain_latency = run_checked_session(m, opts.seed, kReferenceSession,
                                        opts.seconds, false, out).s.latency_s;
  }
  // Set-up samples before and after the session, never during it.
  for (int i = 0; i < kSetupSamples && !opts.trace; ++i) setup.sample();
  const SessionRun run =
      run_checked_session(m, opts.seed, 0, opts.seconds, opts.trace, out);
  for (int i = 0; i < kSetupSamples && !opts.trace; ++i) setup.sample();
  const Session& s = run.s;
  Window w;
  w.latency_s = s.latency_s;
  w.cpu_s = s.cpu_s;
  w.peak_rss_mb = s.peak_rss_mb;
  w.attempted = s.attempted;
  w.failed = s.failed;
  const double busy = s.window_s;
  std::size_t results = 0, requests = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    requests += s.due_s[t].size();
    for (const auto& r : s.results[t]) results += r.size();
  }
  out.info.push_back("session: " + std::to_string(s.attempted) +
                     " measured requests after " +
                     std::to_string(requests - s.attempted) + " warm-up, " +
                     s.backlog_detail);
  const auto lag_p99 = percentile(s.lag_s, 99.0);
  out.info.push_back("gate: " + std::to_string(results) + " option results of " +
                     std::to_string(requests) +
                     " requests checked bit-for-bit against direct "
                     "StreamRuntime replays");
  out.info.push_back("open loop: one session at " +
                     std::to_string(static_cast<int>(kTenants * kRatePerTenant)) +
                     " requests/s, generator lag p99 " +
                     std::to_string(lag_p99.value_or(0.0) * 1e6) + " us");

  if (!opts.trace) {
    report_common(w, setup, out);
    const double ok = static_cast<double>(w.attempted - w.failed);
    out.set("options_per_s", ok * kQuoteOptionsPerRequest / busy,
            w.attempted - w.failed, "offered load is fixed at 2000 requests/s");
    out.set("scenarios_per_s", ok / busy, w.attempted - w.failed,
            "one scenario (the tenant's live curves) per request");
    return out;
  }

  LayerTotals layers;
  layers.add(run, out);
  out.attempted = w.attempted;
  out.failed = w.failed;
  const std::size_t n = w.attempted - w.failed;
  const auto coded = static_cast<double>(std::max<std::size_t>(1, layers.coded));
  out.set("net.encode_us", layers.encode_s * 1e6 / coded, layers.coded,
          "request + response frame per request");
  out.set("net.decode_us", layers.decode_s * 1e6 / coded, layers.coded,
          "FrameReader on request + response frame");
  out.set("net.bytes_per_op", layers.bytes / static_cast<double>(w.attempted),
          w.attempted, "request, response and quote-update frames");
  const double client_p50 = percentile(w.latency_s, 50.0).value_or(0.0);
  const double service_p50 = percentile(s.service_latency_us, 50.0).value_or(0.0);
  out.set("service.latency_p50_us", service_p50, s.service_latency_us.size(),
          "admission to harvest");
  out.set("service.loop_wait_us", client_p50 * 1e6 - service_p50, n,
          "client p50 minus service p50");
  out.set("service.deferred", layers.deferred, n);
  out.set("service.shed", layers.shed, n);
  out.set("runtime.stream_wait_us", median(layers.stream_wait_s) * 1e6,
          layers.stream_wait_s.size(),
          "paced direct replays: p50 ingest-to-result minus median batch time");
  out.set("runtime.batch_events", layers.events / layers.batches,
          static_cast<std::size_t>(layers.batches));
  out.set("cds.retab_ratio", layers.full > 0.0 ? layers.retab / layers.full : 0.0,
          static_cast<std::size_t>(layers.batches),
          "grids re-tabulated / full rebuilds");
  out.set("gen.lag_p99_us", lag_p99.value_or(0.0) * 1e6, s.lag_s.size());
  out.set("trace.overhead",
          client_p50 / percentile(plain_latency, 50.0).value_or(client_p50), n,
          "traced / untraced latency p50");
  zero_unmeasured_layers(out);
  write_trace(layers.log, opts, out);
  return out;
}

}  // namespace perfbench
