/// \file test_service.cpp
/// Deterministic loopback integration tests for the multi-tenant pricing
/// service: N tenants replay seeded feeds over a unix-domain socket and the
/// responses must be bit-identical to driving the same event sequences
/// through StreamRuntime directly -- independent of connection arrival
/// order. Plus the reject taxonomy (unknown tenant, wrong mode, semantic
/// malformation, overload shed, poisoned stream) over a real socket, and
/// the same bit-identity for sessions polled part-way and then drained,
/// without a socket.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/stream_runtime.hpp"
#include "service/service.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"

namespace cdsflow {
namespace {

cds::TermStructure test_interest() {
  return workload::paper_interest_curve(64, 11);
}
cds::TermStructure test_hazard() { return workload::paper_hazard_curve(64, 23); }

std::string unique_socket_path(const char* tag) {
  static int counter = 0;
  return "/tmp/cdsflow-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++) +
         ".sock";
}

/// A fit fast enough that every request in these tests admits on-time.
engine::BackendCandidate generous_fit() {
  engine::BackendCandidate fit;
  fit.engine_name = "cpu-batch";
  fit.watts = 1.0;
  fit.options_per_second = 1e12;
  fit.setup_seconds = 0.0;
  return fit;
}

runtime::StreamConfig small_stream(const std::string& engine) {
  runtime::StreamConfig stream;
  stream.engine = engine;
  stream.lanes = 2;
  stream.max_batch = 64;
  stream.max_wait_us = 200;
  return stream;
}

service::TenantSpec tenant_spec(std::uint32_t id, const std::string& engine) {
  service::TenantSpec spec;
  spec.id = id;
  spec.name = "tenant-" + std::to_string(id);
  spec.stream = small_stream(engine);
  spec.fit = generous_fit();
  return spec;
}

/// The wire slicing both sides of the bit-identity comparison share: walk a
/// feed in order, grouping option events into requests of at most
/// `request_size` (a hazard event flushes the open request first, so the
/// event order on the runtime is identical on both paths).
struct SlicedFeed {
  struct Request {
    std::uint32_t id = 0;
    std::vector<cds::CdsOption> options;
  };
  struct Step {  // one wire frame, in order
    bool quote = false;
    std::size_t request_index = 0;  // !quote
    std::uint32_t knot = 0;         // quote
    double rate = 0.0;
  };
  std::vector<Request> requests;
  std::vector<Step> steps;
};

SlicedFeed slice_feed(const std::vector<workload::QuoteFeedEvent>& feed,
                      std::size_t request_size) {
  SlicedFeed sliced;
  SlicedFeed::Request open;
  auto flush = [&] {
    if (open.options.empty()) return;
    open.id = static_cast<std::uint32_t>(sliced.requests.size() + 1);
    sliced.steps.push_back(
        {false, sliced.requests.size(), 0, 0.0});
    sliced.requests.push_back(std::move(open));
    open = {};
  };
  for (const auto& event : feed) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      flush();
      sliced.steps.push_back(
          {true, 0, static_cast<std::uint32_t>(event.knot), event.rate});
    } else {
      open.options.push_back(event.option);
      if (open.options.size() == request_size) flush();
    }
  }
  flush();
  return sliced;
}

/// Drives one tenant's sliced feed through a connected client (pipelined:
/// all frames out, then all results in) and returns the concatenated
/// results in request order.
struct ReplayOutcome {
  std::vector<cds::SpreadResult> results;
  std::vector<cds::Sensitivities> greeks;
};

ReplayOutcome replay_over_socket(net::Client client, std::uint32_t tenant,
                                 const SlicedFeed& sliced, bool risk) {
  for (const auto& step : sliced.steps) {
    if (step.quote) {
      client.send(net::encode_quote_update(tenant, step.knot, step.rate));
    } else {
      const auto& request = sliced.requests[step.request_index];
      client.send(net::encode_price_request(tenant, request.id,
                                            request.options, risk));
    }
  }
  ReplayOutcome outcome;
  for (const auto& request : sliced.requests) {
    net::Frame frame = client.read_frame();
    EXPECT_EQ(frame.type, net::FrameType::kResult);
    EXPECT_EQ(frame.tenant, tenant);
    EXPECT_EQ(frame.request, request.id) << "responses out of request order";
    EXPECT_EQ(frame.results.size(), request.options.size());
    outcome.results.insert(outcome.results.end(), frame.results.begin(),
                           frame.results.end());
    outcome.greeks.insert(outcome.greeks.end(), frame.greeks.begin(),
                          frame.greeks.end());
  }
  client.close();
  return outcome;
}

/// The same sliced feed on a directly-driven StreamRuntime.
runtime::StreamReport replay_direct(const SlicedFeed& sliced,
                                    const runtime::StreamConfig& stream) {
  runtime::StreamRuntime runtime(test_interest(), test_hazard(), stream);
  for (const auto& step : sliced.steps) {
    if (step.quote) {
      runtime.push_hazard_quote(step.knot, step.rate);
    } else {
      for (const auto& option : sliced.requests[step.request_index].options) {
        runtime.push(option);
      }
    }
  }
  return runtime.finish();
}

void expect_bit_identical(const std::vector<cds::SpreadResult>& service_side,
                          const std::vector<cds::SpreadResult>& direct_side) {
  ASSERT_EQ(service_side.size(), direct_side.size());
  for (std::size_t i = 0; i < service_side.size(); ++i) {
    EXPECT_EQ(service_side[i].id, direct_side[i].id) << "at event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(service_side[i].spread_bps),
              std::bit_cast<std::uint64_t>(direct_side[i].spread_bps))
        << "spread not bit-identical at event " << i;
  }
}

void expect_greeks_bit_identical(
    const std::vector<cds::Sensitivities>& service_side,
    const std::vector<cds::Sensitivities>& direct_side) {
  ASSERT_EQ(service_side.size(), direct_side.size());
  for (std::size_t i = 0; i < service_side.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(service_side[i].cs01),
              std::bit_cast<std::uint64_t>(direct_side[i].cs01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(service_side[i].ir01),
              std::bit_cast<std::uint64_t>(direct_side[i].ir01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(service_side[i].rec01),
              std::bit_cast<std::uint64_t>(direct_side[i].rec01));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(service_side[i].jtd),
              std::bit_cast<std::uint64_t>(direct_side[i].jtd));
  }
}

SlicedFeed tenant_feed(std::uint32_t tenant, std::size_t events) {
  workload::QuoteFeedSpec spec;
  spec.events = events;
  spec.rate_hz = 0.0;  // unpaced
  spec.hazard_update_every = 9;
  spec.seed = 42;
  spec.tenant = tenant;
  return slice_feed(workload::make_quote_feed(spec, test_hazard()), 17);
}

TEST(ServiceLoopback, BitIdenticalToDirectRuntimeAcrossTenantsAndArrivalOrder) {
  const std::vector<std::uint32_t> tenant_ids = {1, 2, 3};
  std::vector<SlicedFeed> feeds;
  for (const auto id : tenant_ids) feeds.push_back(tenant_feed(id, 180));

  // Two passes with opposite client start order: per-tenant responses must
  // not depend on who connected first.
  std::vector<std::vector<ReplayOutcome>> passes;
  for (int pass = 0; pass < 2; ++pass) {
    const std::string path = unique_socket_path("svc");
    service::ServiceConfig config;
    config.stop_when_idle = true;
    for (const auto id : tenant_ids) {
      config.tenants.push_back(tenant_spec(id, "cpu-batch"));
    }
    net::Server server({path});
    service::PricingService pricing(config, test_interest(), test_hazard());
    std::thread loop([&] { server.run(pricing); });

    // Every client connects before any replays: the idle stop would
    // otherwise end the server when one client finishes before the next
    // has connected.
    std::vector<net::Client> connections;
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < tenant_ids.size(); ++i) {
      order.push_back(pass == 0 ? i : tenant_ids.size() - 1 - i);
      connections.push_back(net::Client::connect_unix(path));
    }
    std::vector<ReplayOutcome> outcomes(tenant_ids.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < tenant_ids.size(); ++i) {
      const std::size_t at = order[i];  // reversed second pass
      clients.emplace_back([&, at, i] {
        outcomes[at] = replay_over_socket(std::move(connections[i]),
                                          tenant_ids[at], feeds[at],
                                          /*risk=*/false);
      });
    }
    for (auto& c : clients) c.join();
    loop.join();  // idle-stop fires once all clients disconnected
    EXPECT_EQ(pricing.stats().shed, 0u);
    EXPECT_EQ(pricing.stats().rejects_malformed, 0u);
    passes.push_back(std::move(outcomes));
  }

  for (std::size_t i = 0; i < tenant_ids.size(); ++i) {
    // Service vs direct runtime: the tentpole bit-identity gate.
    const auto direct = replay_direct(feeds[i], small_stream("cpu-batch"));
    expect_bit_identical(passes[0][i].results, direct.run.results);
    // Pass vs pass: arrival-order independence.
    expect_bit_identical(passes[1][i].results, passes[0][i].results);
  }
}

TEST(ServiceLoopback, RiskTenantResponsesBitIdenticalToDirectRuntime) {
  const std::uint32_t tenant = 5;
  const SlicedFeed sliced = tenant_feed(tenant, 120);

  const std::string path = unique_socket_path("risk");
  service::ServiceConfig config;
  config.stop_when_idle = true;
  config.tenants.push_back(tenant_spec(tenant, "cpu-batch-risk"));
  net::Server server({path});
  service::PricingService pricing(config, test_interest(), test_hazard());
  std::thread loop([&] { server.run(pricing); });

  const ReplayOutcome outcome =
      replay_over_socket(net::Client::connect_unix(path), tenant, sliced,
                         /*risk=*/true);
  loop.join();

  const auto direct = replay_direct(sliced, small_stream("cpu-batch-risk"));
  expect_bit_identical(outcome.results, direct.run.results);
  expect_greeks_bit_identical(outcome.greeks, direct.run.sensitivities);
}

TEST(ServiceLoopback, RejectTaxonomyIsMachineReadable) {
  const std::string path = unique_socket_path("rej");
  service::ServiceConfig config;
  config.stop_when_idle = true;
  config.tenants.push_back(tenant_spec(1, "cpu-batch"));
  // A tenant whose fit makes every request miss even the defer ceiling.
  auto slow = tenant_spec(2, "cpu-batch");
  slow.fit.options_per_second = 1.0;  // 1 option/s: anything sheds
  slow.fit.setup_seconds = 100.0;
  slow.deadline = {"interactive", 0.005, 0.020};
  config.tenants.push_back(slow);
  net::Server server({path});
  service::PricingService pricing(config, test_interest(), test_hazard());
  std::thread loop([&] { server.run(pricing); });

  std::vector<cds::CdsOption> options(3);
  for (std::size_t i = 0; i < options.size(); ++i) {
    options[i].id = static_cast<std::int32_t>(i);
    options[i].maturity_years = 5.0;
    options[i].payment_frequency = 0.25;
    options[i].recovery_rate = 0.4;
  }

  {
    net::Client client = net::Client::connect_unix(path);

    // Unknown tenant.
    client.send(net::encode_price_request(99, 1, options));
    net::Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kUnknownTenant);
    EXPECT_EQ(frame.request, 1u);

    // Wrong mode: risk request to a price tenant.
    client.send(net::encode_price_request(1, 2, options, /*risk=*/true));
    frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kWrongMode);

    // Semantically malformed: well-framed but out-of-range option.
    auto bad = options;
    bad[1].recovery_rate = 2.0;
    client.send(net::encode_price_request(1, 3, bad));
    frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kMalformed);
    EXPECT_FALSE(frame.detail.empty());

    // Semantically malformed quote update: knot outside the curve.
    client.send(net::encode_quote_update(1, 4096, 0.02));
    frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kMalformed);

    // Overload: the slow tenant sheds.
    client.send(net::encode_price_request(2, 4, options));
    frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kOverload);
    EXPECT_EQ(frame.request, 4u);

    // The connection survived all five rejects; a valid request still
    // prices.
    client.send(net::encode_price_request(1, 5, options));
    frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kResult);
    EXPECT_EQ(frame.results.size(), options.size());
    client.close();
  }
  loop.join();
  EXPECT_EQ(pricing.stats().rejects_unknown_tenant, 1u);
  EXPECT_EQ(pricing.stats().rejects_wrong_mode, 1u);
  EXPECT_EQ(pricing.stats().rejects_malformed, 2u);
  EXPECT_EQ(pricing.stats().shed, 1u);
  EXPECT_EQ(pricing.stats().admitted, 1u);
}

TEST(ServiceLoopback, InfiniteMaturityIsMalformed) {
  // +inf maturity passes CdsOption::validate() (it is > 0); only the
  // explicit finiteness check of the shared option check catches it.
  const std::string path = unique_socket_path("inf");
  service::ServiceConfig config;
  config.stop_when_idle = true;
  config.tenants.push_back(tenant_spec(1, "cpu-batch"));
  net::Server server({path});
  service::PricingService pricing(config, test_interest(), test_hazard());
  std::thread loop([&] { server.run(pricing); });

  std::vector<cds::CdsOption> options(2);
  options[1].id = 1;
  options[1].maturity_years = std::numeric_limits<double>::infinity();
  {
    net::Client client = net::Client::connect_unix(path);
    client.send(net::encode_price_request(1, 7, options));
    const net::Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kMalformed);
    EXPECT_EQ(frame.request, 7u);
    EXPECT_NE(frame.detail.find("non-finite"), std::string::npos)
        << frame.detail;
    client.close();
  }
  loop.join();
  EXPECT_EQ(pricing.stats().rejects_malformed, 1u);
  EXPECT_EQ(pricing.stats().admitted, 0u);
}

TEST(ServiceLoopback, PoisonedStreamGetsRejectThenDisconnect) {
  const std::string path = unique_socket_path("poison");
  service::ServiceConfig config;
  config.stop_when_idle = true;
  config.tenants.push_back(tenant_spec(1, "cpu-batch"));
  net::Server server({path});
  service::PricingService pricing(config, test_interest(), test_hazard());
  std::thread loop([&] { server.run(pricing); });

  {
    net::Client client = net::Client::connect_unix(path);
    const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00,
                                               0x01, 0x02, 0x03};
    client.send(garbage);
    net::Frame frame = client.read_frame();
    ASSERT_EQ(frame.type, net::FrameType::kReject);
    EXPECT_EQ(frame.reason, net::RejectReason::kMalformed);
    // The server tears the poisoned connection down after the reject.
    EXPECT_THROW(client.read_frame(), Error);
  }
  loop.join();
  EXPECT_EQ(pricing.stats().connections_poisoned, 1u);
}

// --- drain ------------------------------------------------------------------

TEST(ServiceDrain, PolledThenDrainedResponsesMatchTheDirectRuntime) {
  // No sockets: a price tenant and a risk tenant are driven on this thread,
  // polled part-way, then drained with requests still pending. Each
  // tenant's poll and drain responses, joined in order, must match the
  // direct runtime bit for bit -- no row is lost or answered twice between
  // what poll() harvested and what the drain's finish() still held.
  auto risk = tenant_spec(2, "cpu-batch-risk");
  risk.stream.ladder_edges = {0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 30.0};
  service::ServiceConfig config;
  config.tenants = {tenant_spec(1, "cpu-batch"), risk};
  service::PricingService pricing(config, test_interest(), test_hazard());

  constexpr std::size_t kTenants = 2;
  const SlicedFeed feeds[kTenants] = {tenant_feed(1, 240),
                                      tenant_feed(2, 240)};
  ReplayOutcome outcomes[kTenants];
  std::uint32_t next_request[kTenants] = {1, 1};
  std::size_t answered[kTenants] = {0, 0};
  // Each tenant submits on connection id = its index.
  const auto take = [&](std::vector<service::TenantSession::Completed> done) {
    for (const auto& completed : done) {
      const auto t = static_cast<std::size_t>(completed.conn);
      EXPECT_EQ(completed.request, next_request[t]++)
          << "responses out of request order";
      outcomes[t].results.insert(outcomes[t].results.end(),
                                 completed.results.begin(),
                                 completed.results.end());
      outcomes[t].greeks.insert(outcomes[t].greeks.end(),
                                completed.greeks.begin(),
                                completed.greeks.end());
      ++answered[t];
    }
  };
  const auto submit = [&](std::size_t t, std::size_t first, std::size_t end) {
    service::TenantSession& session = *pricing.session(t + 1);
    for (std::size_t s = first; s < end; ++s) {
      const auto& step = feeds[t].steps[s];
      if (step.quote) {
        EXPECT_TRUE(session.push_quote(step.knot, step.rate, nullptr));
        continue;
      }
      const auto& request = feeds[t].requests[step.request_index];
      EXPECT_EQ(session.submit(static_cast<int>(t), request.id,
                               request.options, pricing.now_seconds()),
                service::AdmissionDecision::kAdmit);
    }
  };

  // The first half of each feed, polled until both tenants have answered.
  for (std::size_t t = 0; t < kTenants; ++t) {
    submit(t, 0, feeds[t].steps.size() / 2);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answered[0] == 0 || answered[1] == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "poll never answered a request";
    for (std::size_t t = 0; t < kTenants; ++t) {
      take(pricing.session(t + 1)->poll(pricing.now_seconds()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The rest, drained at once: what was just submitted is never polled.
  for (std::size_t t = 0; t < kTenants; ++t) {
    submit(t, feeds[t].steps.size() / 2, feeds[t].steps.size());
    EXPECT_GT(pricing.session(t + 1)->pending_requests(), 0u);
  }
  take(pricing.drain_all());

  for (std::size_t t = 0; t < kTenants; ++t) {
    SCOPED_TRACE(config.tenants[t].stream.engine);
    EXPECT_EQ(pricing.session(t + 1)->pending_requests(), 0u);
    EXPECT_EQ(next_request[t], feeds[t].requests.size() + 1);
    const auto direct = replay_direct(feeds[t], config.tenants[t].stream);
    expect_bit_identical(outcomes[t].results, direct.run.results);
    expect_greeks_bit_identical(outcomes[t].greeks,
                                direct.run.sensitivities);
  }
  EXPECT_FALSE(outcomes[1].greeks.empty());
}

// --- admission-fit calibration -----------------------------------------------

TEST(CalibrateStreamFit, PriceAndRiskStreamsFitOneProbePerRequestedSize) {
  // The path `serve` takes unless --ops-per-second pins the fit: the
  // planner's probe protocol over fresh stream pricers.
  runtime::StreamConfig price;
  price.engine = "cpu-batch";
  runtime::StreamConfig risk;
  risk.engine = "cpu-batch-risk";
  risk.ladder_edges = {0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 30.0};  // 6 buckets
  for (const auto* stream : {&price, &risk}) {
    SCOPED_TRACE(stream->engine);
    const auto fit = service::calibrate_stream_fit(
        test_interest(), test_hazard(), *stream, {256, 32});
    EXPECT_EQ(fit.engine_name, stream->engine);
    EXPECT_GT(fit.options_per_second, 0.0);
    EXPECT_GE(fit.setup_seconds, 0.0);
    ASSERT_EQ(fit.probes.size(), 2u);
    EXPECT_EQ(fit.probes[0].n_options, 32u);
    EXPECT_EQ(fit.probes[1].n_options, 256u);
    EXPECT_GT(fit.probes[0].seconds, 0.0);
    EXPECT_GT(fit.probes[1].seconds, 0.0);
    // The fit admits: a controller accepts it as is.
    EXPECT_NO_THROW(service::AdmissionController(fit, 2));
  }
  EXPECT_THROW(
      service::calibrate_stream_fit(test_interest(), test_hazard(), price, {}),
      Error);
  EXPECT_THROW(service::calibrate_stream_fit(test_interest(), test_hazard(),
                                             price, {4}),
               Error);
}

}  // namespace
}  // namespace cdsflow
