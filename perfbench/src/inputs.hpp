/// \file inputs.hpp
/// Seeded inputs of every workload, drawn from the library's src/workload
/// generators. The benchmark seed is the only source of randomness: the same
/// seed gives byte-identical books, scenario sets, arrival schedules and
/// frames, and the program under test receives only these generated inputs.

#pragma once

#include <cstdint>
#include <vector>

#include "cds/curve.hpp"
#include "cds/types.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace cds = cdsflow::cds;

/// Independent input streams drawn from one benchmark seed.
enum class Stream : std::uint64_t {
  kCurves = 1,
  kIntradayBooks = 2,
  kEodBooks = 3,
  kEodScenarios = 4,
  kClusterBooks = 5,
  kQuoteArrivals = 6,
  kQuoteFeed = 7,
  kGateSample = 8,
};

/// Seed of item `index` of `stream` (a split-tree child, never arithmetic on
/// the seed: nearby seeds share most of the generator's state).
std::uint64_t item_seed(std::uint64_t seed, Stream stream, std::uint64_t index);

/// The market every workload prices against: 1,024-knot interest and hazard
/// curves (the paper's curve size).
struct Market {
  cds::TermStructure interest;
  cds::TermStructure hazard;
};
Market market(std::uint64_t seed);

/// Book `index` of `stream`: `count` options with continuous maturities in
/// [1, 10] years (every option its own schedule grid).
std::vector<cds::CdsOption> continuous_book(std::uint64_t seed, Stream stream,
                                            std::uint64_t index,
                                            std::size_t count);

/// Monte-Carlo hazard scenario set of eod job `job`.
cdsflow::workload::ScenarioSet eod_scenarios(const cds::TermStructure& hazard,
                                             std::uint64_t seed,
                                             std::uint64_t job,
                                             std::size_t count);

// --- quotes ----------------------------------------------------------------

inline constexpr std::size_t kQuoteOptionsPerRequest = 32;
inline constexpr std::size_t kQuoteRequestsPerUpdate = 64;

/// One message a tenant's connection sends: a price/risk request or a
/// hazard-quote update, with its due time and pre-encoded frame.
struct QuoteStep {
  double due_s = 0.0;
  bool quote = false;
  std::uint32_t request = 0;  ///< request id (1-based per tenant)
  std::uint32_t knot = 0;
  double rate = 0.0;
  std::vector<cds::CdsOption> options;
  std::vector<std::uint8_t> frame;
};

/// Per-tenant message sequences of quotes session `session`: tenant t
/// (1-based) sends Poisson arrivals at `rate_hz_per_tenant` over
/// [0, seconds), 32 standard-tenor options per request, a hazard-quote
/// update after every 64 requests (sent at the next request's due time).
/// Tenant 2's requests are risk requests.
std::vector<std::vector<QuoteStep>> quote_plan(std::uint64_t seed,
                                               const cds::TermStructure& hazard,
                                               double seconds,
                                               double rate_hz_per_tenant,
                                               std::size_t tenants,
                                               std::uint64_t session);

/// FNV-1a digest of bytes, for the determinism self-test.
std::uint64_t digest(const void* data, std::size_t n,
                     std::uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench
