#include "inputs.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "net/codec.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"
#include "workload/options.hpp"

namespace perfbench {

namespace workload = cdsflow::workload;

std::uint64_t item_seed(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return cdsflow::Rng(seed)
      .split(static_cast<std::uint64_t>(stream))
      .split(index)
      .next_u64();
}

Market market(std::uint64_t seed) {
  return {workload::paper_interest_curve(1024, item_seed(seed, Stream::kCurves, 0)),
          workload::paper_hazard_curve(1024, item_seed(seed, Stream::kCurves, 1))};
}

std::vector<cds::CdsOption> continuous_book(std::uint64_t seed, Stream stream,
                                            std::uint64_t index,
                                            std::size_t count) {
  workload::PortfolioSpec spec;
  spec.count = count;
  spec.seed = item_seed(seed, stream, index);
  return workload::make_portfolio(spec);
}

workload::ScenarioSet eod_scenarios(const cds::TermStructure& hazard,
                                    std::uint64_t seed, std::uint64_t job,
                                    std::size_t count) {
  return workload::mc_hazard_scenarios(
      hazard, count, 0.25, item_seed(seed, Stream::kEodScenarios, job));
}

std::vector<std::vector<QuoteStep>> quote_plan(std::uint64_t seed,
                                               const cds::TermStructure& hazard,
                                               double seconds,
                                               double rate_hz_per_tenant,
                                               std::size_t tenants,
                                               std::uint64_t session) {
  const auto stream = [&](std::uint64_t tenant) {
    return session * (tenants + 1) + tenant;  // distinct per (session, tenant)
  };
  std::vector<std::vector<QuoteStep>> plan(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto tenant = static_cast<std::uint32_t>(t + 1);
    const bool risk = tenant == 2;

    // Poisson arrivals: exponential gaps at the tenant's rate.
    std::vector<double> due;
    cdsflow::Rng arrivals(item_seed(seed, Stream::kQuoteArrivals, stream(tenant)));
    for (double at = 0.0;;) {
      at += -std::log(1.0 - arrivals.uniform01()) / rate_hz_per_tenant;
      if (at >= seconds) break;
      due.push_back(at);
    }

    // Options and hazard-quote updates from the library's feed generator:
    // one update after every 64 requests' worth of option events.
    workload::QuoteFeedSpec spec;
    spec.hazard_update_every =
        kQuoteRequestsPerUpdate * kQuoteOptionsPerRequest + 1;
    spec.events = due.size() * kQuoteOptionsPerRequest +
                  due.size() / kQuoteRequestsPerUpdate + 1;
    spec.book.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
    spec.seed = item_seed(seed, Stream::kQuoteFeed, stream(0));
    spec.tenant = tenant;
    const auto feed = workload::make_quote_feed(spec, hazard);

    auto& steps = plan[t];
    QuoteStep open;
    std::uint32_t request = 0;
    for (const auto& event : feed) {
      if (request == due.size()) break;
      if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
        QuoteStep quote;
        quote.quote = true;
        quote.due_s = due[request];
        quote.knot = static_cast<std::uint32_t>(event.knot);
        quote.rate = event.rate;
        quote.frame = cdsflow::net::encode_quote_update(tenant, quote.knot,
                                                        quote.rate);
        steps.push_back(std::move(quote));
        continue;
      }
      open.options.push_back(event.option);
      if (open.options.size() == kQuoteOptionsPerRequest) {
        open.due_s = due[request];
        open.request = ++request;
        open.frame = cdsflow::net::encode_price_request(tenant, open.request,
                                                        open.options, risk);
        steps.push_back(std::move(open));
        open = {};
      }
    }
  }
  return plan;
}

std::uint64_t digest(const void* data, std::size_t n, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
