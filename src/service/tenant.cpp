#include "service/tenant.hpp"

#include <chrono>
#include <cmath>

#include "cds/stream_pricer.hpp"
#include "common/error.hpp"
#include "engines/planner.hpp"
#include "net/codec.hpp"

namespace cdsflow::service {

engine::BackendCandidate calibrate_stream_fit(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const runtime::StreamConfig& stream,
    const std::vector<std::size_t>& probe_sizes) {
  const cds::StreamPricerConfig pricer_config =
      runtime::stream_pricer_config(stream);

  // The planner's probe protocol against the exact pricer a tenant lane
  // will run. A fresh pricer per run keeps the grid-cache state comparable
  // to a lane's cold start -- the fit's setup term is precisely that cost.
  std::vector<cds::CdsOption> book;
  std::vector<cds::SpreadResult> out;
  std::vector<cds::Sensitivities> greeks;
  std::vector<double> ladder;
  return engine::probe_backend(
      stream.engine, 1.0, probe_sizes, [&](std::size_t size) {
        if (book.size() != size) {
          book = engine::probe_book(size);
          out.resize(size);
        }
        cds::StreamPricer pricer(interest, hazard, pricer_config);
        if (pricer_config.risk_mode) {
          greeks.resize(size);
          ladder.resize(size * pricer.ladder_buckets());
        }
        const auto t0 = std::chrono::steady_clock::now();
        if (pricer_config.risk_mode) {
          pricer.price_with_sensitivities(book, out, greeks, ladder);
        } else {
          pricer.price(book, out);
        }
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
      });
}

TenantSession::TenantSession(TenantSpec spec,
                             const cds::TermStructure& interest,
                             const cds::TermStructure& hazard)
    : spec_(std::move(spec)),
      hazard_knots_(hazard.size()),
      runtime_(interest, hazard, spec_.stream),
      admission_(spec_.fit, runtime_.lanes()) {
  CDSFLOW_EXPECT(spec_.id != 0, "tenant id 0 is reserved on the wire");
}

bool TenantSession::push_quote(std::uint32_t knot, double rate,
                               std::string* error) {
  // Semantic validation the codec deliberately leaves to the service: the
  // runtime's dispatcher applies updates on its own thread, so a bad knot
  // must be refused here, not discovered as a lane failure later.
  if (knot >= hazard_knots_) {
    if (error != nullptr) {
      *error = "hazard knot " + std::to_string(knot) + " out of range (curve " +
               "has " + std::to_string(hazard_knots_) + " knots)";
    }
    return false;
  }
  if (!std::isfinite(rate) || rate <= 0.0) {
    if (error != nullptr) *error = "hazard rate must be finite and positive";
    return false;
  }
  runtime_.push_hazard_quote(knot, rate);
  return true;
}

AdmissionDecision TenantSession::submit(
    int conn, std::uint32_t request,
    const std::vector<cds::CdsOption>& options, double now_seconds) {
  CDSFLOW_EXPECT(!drained_, "tenant session already drained");
  const AdmissionDecision decision = admission_.decide(
      spec_.id, request, options.size(), now_seconds, spec_.deadline);
  if (decision == AdmissionDecision::kShed) return decision;

  // Admitted work enters the event stream atomically in frame order; the
  // runtime's ordered merge then guarantees the request owns a contiguous
  // result span (see file header).
  Pending pending;
  pending.conn = conn;
  pending.request = request;
  pending.n_options = options.size();
  pending.status = decision == AdmissionDecision::kDefer
                       ? net::kResultDeferred
                       : net::kResultOnTime;
  pending.arrival_seconds = now_seconds;
  for (const auto& option : options) runtime_.push(option);
  pending_.push_back(pending);
  return decision;
}

void TenantSession::buffer(const engine::PricingRun& rows) {
  unsent_results_.insert(unsent_results_.end(), rows.results.begin(),
                         rows.results.end());
  if (risk()) {
    unsent_greeks_.insert(unsent_greeks_.end(), rows.sensitivities.begin(),
                          rows.sensitivities.end());
  }
}

std::vector<TenantSession::Completed> TenantSession::complete_ready(
    double now_seconds) {
  std::vector<Completed> done;
  while (!pending_.empty() &&
         unsent_results_.size() >= pending_.front().n_options) {
    const Pending& pending = pending_.front();
    Completed completed;
    completed.conn = pending.conn;
    completed.request = pending.request;
    completed.status = pending.status;
    completed.risk = risk();
    const auto n = static_cast<std::ptrdiff_t>(pending.n_options);
    completed.results.assign(unsent_results_.begin(),
                             unsent_results_.begin() + n);
    unsent_results_.erase(unsent_results_.begin(),
                          unsent_results_.begin() + n);
    if (risk()) {
      completed.greeks.assign(unsent_greeks_.begin(),
                              unsent_greeks_.begin() + n);
      unsent_greeks_.erase(unsent_greeks_.begin(), unsent_greeks_.begin() + n);
    }
    completed.latency_us = (now_seconds - pending.arrival_seconds) * 1e6;
    latency_us_.push_back(completed.latency_us);
    pending_.pop_front();
    done.push_back(std::move(completed));
  }
  return done;
}

std::vector<TenantSession::Completed> TenantSession::poll(double now_seconds) {
  CDSFLOW_EXPECT(!drained_, "tenant session already drained");
  for (const auto& batch : runtime_.poll_batches()) buffer(batch.rows);
  return complete_ready(now_seconds);
}

std::vector<TenantSession::Completed> TenantSession::drain(
    double now_seconds) {
  CDSFLOW_EXPECT(!drained_, "tenant session already drained");
  drained_ = true;
  // finish() holds exactly the rows poll() never took.
  buffer(runtime_.finish().run);
  auto done = complete_ready(now_seconds);
  CDSFLOW_ASSERT(pending_.empty(),
                 "drained session left requests without results");
  return done;
}

}  // namespace cdsflow::service
