/// \file tenant.hpp
/// Per-tenant session state of the pricing service: one StreamRuntime per
/// tenant, request bookkeeping that slices the runtime's ordered result
/// stream back into per-request responses, and the tenant's admission
/// controller.
///
/// The bit-identity contract rides on StreamRuntime's determinism
/// guarantee: a tenant's admitted events (options and hazard quotes) are
/// pushed into its runtime in frame order, the runtime hands each
/// micro-batch's rows out once, in exactly that event order, to poll() or,
/// if never polled, to drain() (stream_runtime.hpp), and the session
/// completes requests by counting options -- the first pending request owns
/// the first n_options results of the stream, the next request the
/// following ones, and so on. No result is ever recomputed, copied through
/// a lossy format, or reordered, so a response's spreads are bit-identical
/// to pricing the same event sequence on a StreamRuntime directly
/// (tests/test_service.cpp drives both sides and compares bits).
///
/// All methods run on the service's event-loop thread; the runtime's own
/// API is the only cross-thread surface.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "runtime/stream_runtime.hpp"
#include "service/admission.hpp"

namespace cdsflow::service {

struct TenantSpec {
  /// Wire tenant id (0 is reserved/invalid on the wire).
  std::uint32_t id = 0;
  std::string name;
  DeadlineClass deadline{"standard", 0.050, 0.200};
  /// The tenant's runtime shape. `engine` carrying "-risk" makes this a
  /// risk tenant (price requests are then kWrongMode and vice versa).
  runtime::StreamConfig stream;
  /// Affine cost fit of one runtime lane, for admission projection. Tests
  /// pin exact fits; the CLI calibrates one via calibrate_stream_fit().
  engine::BackendCandidate fit;
};

/// Fits the affine admission model of one tenant lane through
/// engine::probe_backend(), the planner's one probe protocol: each run
/// builds a fresh StreamPricer for the given stream config (a lane's cold
/// start, so the setup term is that cost on purpose) and times only its
/// price call over engine::probe_book(size). `probe_sizes` are validated
/// like every client's (engine::checked_probe_sizes()).
engine::BackendCandidate calibrate_stream_fit(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const runtime::StreamConfig& stream,
    const std::vector<std::size_t>& probe_sizes = {256, 2048});

class TenantSession {
 public:
  /// One completed (admitted or deferred) request, ready to encode.
  struct Completed {
    int conn = -1;
    std::uint32_t request = 0;
    std::uint8_t status = 0;  ///< net::kResultOnTime / kResultDeferred
    bool risk = false;
    std::vector<cds::SpreadResult> results;
    std::vector<cds::Sensitivities> greeks;
    /// Ingest-to-response latency, microseconds (admission arrival to
    /// harvest).
    double latency_us = 0.0;
  };

  TenantSession(TenantSpec spec, const cds::TermStructure& interest,
                const cds::TermStructure& hazard);

  /// Applies a hazard-quote update; false (with `error` set) when the knot
  /// index or rate fails semantic validation. Valid updates enter the event
  /// stream in order, like a directly-driven runtime's push_hazard_quote.
  bool push_quote(std::uint32_t knot, double rate, std::string* error);

  /// Admission-checks and (unless shed) enqueues one request. Options must
  /// already be semantically valid. `now_seconds` is the service clock.
  AdmissionDecision submit(int conn, std::uint32_t request,
                           const std::vector<cds::CdsOption>& options,
                           double now_seconds);

  /// Harvests micro-batches completed since the last poll and returns every
  /// request whose full result span is now available, in request order.
  std::vector<Completed> poll(double now_seconds);

  /// Closes the runtime, drains it and completes all remaining requests.
  /// Call once, after which the session is done.
  std::vector<Completed> drain(double now_seconds);

  const TenantSpec& spec() const { return spec_; }
  bool risk() const { return runtime_.risk_mode(); }
  std::size_t hazard_knots() const { return hazard_knots_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  std::size_t pending_requests() const { return pending_.size(); }
  /// Per-request ingest-to-response latencies harvested so far (us).
  const std::vector<double>& latency_us() const { return latency_us_; }

 private:
  struct Pending {
    int conn = -1;
    std::uint32_t request = 0;
    std::size_t n_options = 0;
    std::uint8_t status = 0;
    double arrival_seconds = 0.0;
  };

  /// Appends rows the runtime handed out to unsent_*.
  void buffer(const engine::PricingRun& rows);
  /// Completes pending requests off the front of unsent_* (in order) while
  /// full spans are available.
  std::vector<Completed> complete_ready(double now_seconds);

  TenantSpec spec_;
  std::size_t hazard_knots_ = 0;
  runtime::StreamRuntime runtime_;
  AdmissionController admission_;

  std::deque<Pending> pending_;
  /// Rows harvested but not yet sliced into a response, in event order
  /// (the stream between the last completed request and the newest polled
  /// batch). Deques: slicing a response off the front moves nothing else.
  std::deque<cds::SpreadResult> unsent_results_;
  std::deque<cds::Sensitivities> unsent_greeks_;
  std::vector<double> latency_us_;
  bool drained_ = false;
};

}  // namespace cdsflow::service
