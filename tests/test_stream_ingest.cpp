/// \file test_stream_ingest.cpp
/// The streaming ingest runtime: bounded-queue backpressure (blocking vs
/// drop-oldest, both counted), micro-batch flush policy on a fake clock,
/// deterministic merge of out-of-order batch completions, and end-to-end
/// equivalence of the concurrent stream with a serial replay -- hazard-quote
/// updates included.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/stream_pricer.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "engines/registry.hpp"
#include "runtime/ingest_queue.hpp"
#include "runtime/stream_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"

namespace cdsflow {
namespace {

using runtime::BackpressurePolicy;
using runtime::IngestQueue;
using runtime::MicroBatcher;
using runtime::QuoteEvent;
using runtime::StreamClock;

cds::TermStructure test_interest() {
  return workload::paper_interest_curve(64, 11);
}
cds::TermStructure test_hazard() { return workload::paper_hazard_curve(64, 23); }

cds::CdsOption option_with_id(std::int32_t id) {
  cds::CdsOption option;
  option.id = id;
  option.maturity_years = 5.0;
  return option;
}

// --- ingest queue -----------------------------------------------------------

TEST(IngestQueue, BlockPolicyIsLosslessAndCountsWaits) {
  IngestQueue queue(2, BackpressurePolicy::kBlock);
  std::thread producer([&queue] {
    for (std::int32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(i))));
    }
    queue.close();
  });
  // Let the producer actually hit the capacity wall before draining.
  for (int spin = 0; spin < 1000 && queue.stats().blocked_pushes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<QuoteEvent> events;
  while (auto event = queue.pop()) events.push_back(*event);
  producer.join();

  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
    EXPECT_EQ(events[i].option.id, static_cast<std::int32_t>(i));
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.dropped_oldest, 0u);
  EXPECT_GE(stats.blocked_pushes, 1u);
  EXPECT_EQ(stats.high_water, 2u);
  EXPECT_TRUE(queue.drained());
}

TEST(IngestQueue, BlockedPushChargesWaitToIngestLatency) {
  // Regression: the ingest stamp used to be taken *after* the kBlock
  // capacity wait, so time an event spent blocked by backpressure was
  // invisible to ingest-to-result latency and deadline accounting. The
  // stamp is now taken on entry to push(): with a capacity-1 queue and a
  // deliberately slow consumer, the blocked event's latency must include
  // the time it spent parked.
  IngestQueue queue(1, BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(0))));
  std::thread producer([&queue] {
    ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(1))));
  });
  // Wait until the producer is provably parked on the full queue.
  for (int spin = 0; spin < 2000 && queue.stats().blocked_pushes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queue.stats().blocked_pushes, 1u);
  // Slow consumer: hold the queue full while the producer stays blocked.
  const auto blocked_for = std::chrono::milliseconds(50);
  std::this_thread::sleep_for(blocked_for);
  ASSERT_TRUE(queue.pop().has_value());  // frees space, releases producer
  producer.join();

  const auto blocked = queue.pop();
  ASSERT_TRUE(blocked.has_value());
  EXPECT_EQ(blocked->option.id, 1);
  const auto latency = StreamClock::now() - blocked->ingest;
  // Pre-fix this measured ~0 (stamped after the wait); post-fix it covers
  // the whole blocked interval. Allow generous slack under sanitizers.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(latency),
            blocked_for - std::chrono::milliseconds(5));
}

TEST(IngestQueue, DropOldestEvictsStalestAndCounts) {
  IngestQueue queue(4, BackpressurePolicy::kDropOldest);
  for (std::int32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.push(runtime::option_event(option_with_id(i))));
  }
  EXPECT_EQ(queue.size(), 4u);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.dropped_oldest, 6u);
  EXPECT_EQ(stats.blocked_pushes, 0u);

  queue.close();
  // The survivors are the newest four, still in ingest order.
  for (std::int32_t want = 6; want < 10; ++want) {
    const auto event = queue.pop();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->option.id, want);
    EXPECT_EQ(event->sequence, static_cast<std::uint64_t>(want));
  }
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_TRUE(queue.drained());
}

TEST(IngestQueue, CloseRejectsPushesAndDrains) {
  IngestQueue queue(8, BackpressurePolicy::kBlock);
  EXPECT_TRUE(queue.push(runtime::option_event(option_with_id(0))));
  queue.close();
  EXPECT_FALSE(queue.push(runtime::option_event(option_with_id(1))));
  EXPECT_EQ(queue.stats().rejected_closed, 1u);
  EXPECT_FALSE(queue.drained());  // one event still queued
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.drained());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(IngestQueue, PopForTimesOutOnEmptyOpenQueue) {
  IngestQueue queue(4, BackpressurePolicy::kBlock);
  EXPECT_FALSE(queue.pop_for(std::chrono::milliseconds(1)).has_value());
  EXPECT_FALSE(queue.drained());  // timed out, not drained
}

TEST(IngestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(IngestQueue(0, BackpressurePolicy::kBlock), Error);
}

TEST(IngestQueue, PolicyNamesRoundTrip) {
  EXPECT_EQ(runtime::parse_backpressure_policy("block"),
            BackpressurePolicy::kBlock);
  EXPECT_EQ(runtime::parse_backpressure_policy("drop-oldest"),
            BackpressurePolicy::kDropOldest);
  EXPECT_STREQ(to_string(BackpressurePolicy::kDropOldest), "drop-oldest");
  EXPECT_THROW(runtime::parse_backpressure_policy("spill"), Error);
}

// --- micro-batcher (fake clock) ---------------------------------------------

QuoteEvent event_at(StreamClock::time_point ingest, std::int32_t id) {
  QuoteEvent event = runtime::option_event(option_with_id(id));
  event.ingest = ingest;
  return event;
}

TEST(MicroBatcher, FlushesOnMaxBatch) {
  const auto t0 = StreamClock::time_point(std::chrono::seconds(100));
  MicroBatcher batcher(3, std::chrono::microseconds(500));
  EXPECT_FALSE(batcher.add(event_at(t0, 0)));
  EXPECT_FALSE(batcher.add(event_at(t0, 1)));
  EXPECT_TRUE(batcher.add(event_at(t0, 2)));  // full: flush now
  const auto batch = batcher.take();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[2].option.id, 2);
  EXPECT_FALSE(batcher.open());
}

TEST(MicroBatcher, FlushesOnMaxWaitWithFakeClock) {
  const auto t0 = StreamClock::time_point(std::chrono::seconds(100));
  const auto wait = std::chrono::microseconds(500);
  MicroBatcher batcher(1024, wait);

  // Closed batcher: never due, a fresh event could wait the full budget.
  EXPECT_FALSE(batcher.due(t0));
  EXPECT_EQ(batcher.time_until_due(t0), wait);

  // The deadline anchors at the *oldest* event's ingest stamp.
  batcher.add(event_at(t0, 0));
  batcher.add(event_at(t0 + std::chrono::microseconds(400), 1));
  EXPECT_FALSE(batcher.due(t0 + std::chrono::microseconds(499)));
  EXPECT_EQ(batcher.time_until_due(t0 + std::chrono::microseconds(300)),
            std::chrono::microseconds(200));
  EXPECT_TRUE(batcher.due(t0 + std::chrono::microseconds(500)));
  EXPECT_EQ(batcher.time_until_due(t0 + std::chrono::microseconds(600)),
            StreamClock::duration::zero());

  EXPECT_EQ(batcher.take().size(), 2u);
  EXPECT_FALSE(batcher.due(t0 + std::chrono::seconds(1)));  // reset
}

TEST(MicroBatcher, RejectsDegenerateConfig) {
  EXPECT_THROW(MicroBatcher(0, std::chrono::microseconds(1)), Error);
  EXPECT_THROW(MicroBatcher(4, std::chrono::microseconds(-1)), Error);
}

// --- deterministic merge ----------------------------------------------------

runtime::stream_detail::BatchResult batch_result(std::size_t index,
                                                 std::int32_t first_id,
                                                 std::size_t n) {
  runtime::stream_detail::BatchResult result;
  result.index = index;
  for (std::size_t i = 0; i < n; ++i) {
    result.rows.results.push_back(
        {first_id + static_cast<std::int32_t>(i), 100.0});
  }
  return result;
}

std::vector<std::int32_t> ids_of(
    const std::vector<runtime::stream_detail::BatchResult>& batches) {
  std::vector<std::int32_t> ids;
  for (const auto& batch : batches) {
    for (const auto& r : batch.rows.results) ids.push_back(r.id);
  }
  return ids;
}

TEST(BatchCollector, MergesOutOfOrderCompletionsInBatchOrder) {
  runtime::stream_detail::BatchCollector collector;
  // Completion order 2, 0, 3, 1 -- the merge must not care. Each read hands
  // out only the run up to the first gap, and each batch exactly once.
  collector.put(batch_result(2, 20, 2));
  EXPECT_TRUE(collector.take_ready().empty());
  collector.put(batch_result(0, 0, 3));
  EXPECT_EQ(ids_of(collector.take_ready()),
            (std::vector<std::int32_t>{0, 1, 2}));
  collector.put(batch_result(3, 30, 1));
  collector.put(batch_result(1, 10, 2));

  const auto merged = collector.take_ready(4);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.front().index, 1u);
  EXPECT_EQ(ids_of(merged), (std::vector<std::int32_t>{10, 11, 20, 21, 30}));
  EXPECT_TRUE(collector.take_ready().empty());
}

TEST(BatchCollector, DetectsLostBatch) {
  runtime::stream_detail::BatchCollector collector;
  collector.put(batch_result(0, 0, 1));
  collector.put(batch_result(2, 20, 1));  // index 1 never arrives
  EXPECT_EQ(collector.take_ready().size(), 1u);
  EXPECT_THROW(collector.take_ready(3), Error);

  // The last batch lost: nothing is left behind a gap, but the run ends
  // short of the submitted count.
  runtime::stream_detail::BatchCollector tail;
  tail.put(batch_result(0, 0, 1));
  EXPECT_THROW(tail.take_ready(2), Error);
}

TEST(BatchCollector, RejectsARepeatedIndex) {
  runtime::stream_detail::BatchCollector collector;
  collector.put(batch_result(0, 0, 1));
  collector.put(batch_result(1, 10, 1));
  EXPECT_THROW(collector.put(batch_result(1, 10, 1)), Error);  // stored
  EXPECT_EQ(collector.take_ready().size(), 2u);
  EXPECT_THROW(collector.put(batch_result(0, 0, 1)), Error);  // taken
}

// --- stream runtime end to end ----------------------------------------------

workload::QuoteFeedSpec small_feed_spec(std::size_t events,
                                        std::size_t update_every) {
  workload::QuoteFeedSpec spec;
  spec.events = events;
  spec.hazard_update_every = update_every;
  spec.book.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.seed = 99;
  return spec;
}

/// Serial replay reference: one StreamPricer, events applied in feed order.
std::vector<cds::SpreadResult> replay_serially(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const std::vector<workload::QuoteFeedEvent>& feed) {
  cds::StreamPricer pricer(interest, hazard);
  std::vector<cds::SpreadResult> results;
  for (const auto& event : feed) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      pricer.update_hazard_quote(event.knot, event.rate);
    } else {
      cds::SpreadResult out;
      pricer.price({&event.option, 1}, {&out, 1});
      results.push_back(out);
    }
  }
  return results;
}

// --- per-tenant feed independence -------------------------------------------

/// Collapses a feed into a comparable fingerprint: the exact doubles that the
/// generator draws (arrivals, option fields, update rates). Bit equality of
/// fingerprints means bit equality of feeds.
std::vector<double> feed_fingerprint(
    const std::vector<workload::QuoteFeedEvent>& feed) {
  std::vector<double> fp;
  for (const auto& event : feed) {
    fp.push_back(event.offset_seconds);
    if (event.kind == workload::QuoteFeedEvent::Kind::kOption) {
      fp.push_back(event.option.maturity_years);
      fp.push_back(event.option.recovery_rate);
    } else {
      fp.push_back(static_cast<double>(event.knot));
      fp.push_back(event.rate);
    }
  }
  return fp;
}

workload::QuoteFeedSpec tenant_feed_spec(std::uint64_t seed,
                                         std::uint32_t tenant) {
  auto spec = small_feed_spec(96, 8);
  spec.seed = seed;
  spec.tenant = tenant;
  spec.rate_hz = 1000.0;  // exercise the arrival stream too
  return spec;
}

TEST(QuoteFeed, TenantZeroReproducesTheLegacyStreamBitForBit) {
  const auto hazard = test_hazard();
  auto legacy = small_feed_spec(96, 8);
  legacy.rate_hz = 1000.0;
  legacy.seed = 7;
  // tenant is defaulted to 0 in `legacy`; setting it explicitly must not
  // perturb a single drawn bit.
  EXPECT_EQ(feed_fingerprint(workload::make_quote_feed(legacy, hazard)),
            feed_fingerprint(
                workload::make_quote_feed(tenant_feed_spec(7, 0), hazard)));
}

TEST(QuoteFeed, TenantStreamsAreDeterministicAndPairwiseDistinct) {
  const auto hazard = test_hazard();
  std::vector<std::vector<double>> prints;
  for (const std::uint32_t tenant : {0u, 1u, 2u, 3u, 4u}) {
    const auto spec = tenant_feed_spec(7, tenant);
    const auto a = feed_fingerprint(workload::make_quote_feed(spec, hazard));
    const auto b = feed_fingerprint(workload::make_quote_feed(spec, hazard));
    EXPECT_EQ(a, b) << "tenant " << tenant << " feed must be reproducible";
    prints.push_back(a);
  }
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j])
          << "tenants " << i << " and " << j << " share a stream";
    }
  }
}

TEST(QuoteFeed, TenantDerivationIsNotSeedArithmetic) {
  // The classic bug: deriving tenant streams as seed + tenant, which makes
  // (seed=7, tenant=2) collide with (seed=8, tenant=1) and (seed=9,
  // tenant=0). The split-tree derivation must keep all of these distinct.
  const auto hazard = test_hazard();
  const auto base =
      feed_fingerprint(workload::make_quote_feed(tenant_feed_spec(7, 2),
                                                 hazard));
  EXPECT_NE(base, feed_fingerprint(workload::make_quote_feed(
                      tenant_feed_spec(8, 1), hazard)));
  EXPECT_NE(base, feed_fingerprint(workload::make_quote_feed(
                      tenant_feed_spec(9, 0), hazard)));
  EXPECT_NE(base, feed_fingerprint(workload::make_quote_feed(
                      tenant_feed_spec(5, 4), hazard)));
}

TEST(StreamRuntime, MatchesSerialReplayWithHazardUpdates) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto spec = small_feed_spec(101, 10);
  const auto feed = workload::make_quote_feed(spec, hazard);
  const auto want = replay_serially(interest, hazard, feed);

  runtime::StreamConfig cfg;
  cfg.lanes = 3;
  cfg.max_batch = 8;
  cfg.max_wait_us = 50;
  runtime::StreamRuntime rt(interest, hazard, cfg);
  const auto report = rt.play(feed);

  EXPECT_EQ(report.events_in, 101u);
  EXPECT_EQ(report.hazard_updates, 10u);
  EXPECT_EQ(report.events_priced, 91u);
  EXPECT_EQ(report.events_dropped, 0u);
  ASSERT_EQ(report.run.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.run.results[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(report.run.results[i].spread_bps, want[i].spread_bps)
        << "at " << i;
  }
  // Sanity on the accounting: every option event has a latency, batches
  // partition the events, modelled makespan is positive.
  std::size_t batched_events = 0;
  for (const auto& batch : report.batches) batched_events += batch.events;
  EXPECT_EQ(batched_events, report.events_priced);
  EXPECT_GT(report.run.invocations, 0u);
  EXPECT_GT(report.modelled_seconds, 0.0);
  EXPECT_GT(report.max_latency_seconds, 0.0);
  EXPECT_GE(report.p99_latency_seconds, report.p50_latency_seconds);
}

TEST(StreamRuntime, DeterministicAcrossLaneCounts) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(64, 9), hazard);
  std::vector<cds::SpreadResult> reference;
  for (const unsigned lanes : {1u, 4u}) {
    SCOPED_TRACE(lanes);
    runtime::StreamConfig cfg;
    cfg.lanes = lanes;
    cfg.max_batch = 5;
    runtime::StreamRuntime rt(interest, hazard, cfg);
    const auto report = rt.play(feed);
    if (reference.empty()) {
      reference = report.run.results;
    } else {
      ASSERT_EQ(report.run.results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(report.run.results[i].id, reference[i].id);
        EXPECT_EQ(report.run.results[i].spread_bps,
                  reference[i].spread_bps);
      }
    }
  }
}

TEST(StreamRuntime, RiskModeStreamsGreeks) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(40, 0), hazard);
  std::vector<cds::CdsOption> book;
  for (const auto& event : feed) book.push_back(event.option);

  runtime::StreamConfig cfg;
  cfg.engine = "cpu-batch-risk";
  cfg.lanes = 2;
  cfg.max_batch = 16;
  cfg.ladder_edges = {0.0, 5.0, 30.0};
  runtime::StreamRuntime rt(interest, hazard, cfg);
  EXPECT_TRUE(rt.risk_mode());
  EXPECT_EQ(rt.ladder_buckets(), 2u);
  const auto report = rt.play(feed);

  cds::BatchRiskConfig risk_config;
  risk_config.ladder_edges = cfg.ladder_edges;
  const cds::BatchPricer reference(interest, hazard);
  const auto want = reference.price_with_sensitivities(book, risk_config);

  ASSERT_EQ(report.run.sensitivities.size(), book.size());
  ASSERT_EQ(report.run.ladder_buckets, 2u);
  ASSERT_EQ(report.run.cs01_ladder.size(), book.size() * 2);
  for (std::size_t i = 0; i < book.size(); ++i) {
    EXPECT_EQ(report.run.sensitivities[i].cs01, want.sensitivities[i].cs01);
    EXPECT_EQ(report.run.sensitivities[i].jtd, want.sensitivities[i].jtd);
    EXPECT_EQ(report.run.results[i].spread_bps,
              want.sensitivities[i].spread_bps);
  }
  for (std::size_t i = 0; i < report.run.cs01_ladder.size(); ++i) {
    EXPECT_EQ(report.run.cs01_ladder[i], want.cs01_ladder[i]);
  }
}

TEST(StreamRuntime, SweepStreamPricesLikeTheSweepEngine) {
  // A stream's kernel token sets its lanes' SIMD level exactly as it sets
  // the engine's: a one-lane "cpu-sweep" stream must reproduce the
  // "cpu-sweep" engine bit for bit (at a vector level a kScalar lane would
  // differ in the last bits of some spreads). Continuous maturities give
  // every option its own grid, so every column tail is exercised.
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  workload::QuoteFeedSpec spec;
  spec.events = 512;
  spec.seed = 31;
  const auto feed = workload::make_quote_feed(spec, hazard);
  std::vector<cds::CdsOption> book;
  for (const auto& event : feed) book.push_back(event.option);

  runtime::StreamConfig cfg;
  cfg.engine = "cpu-sweep";
  cfg.lanes = 1;
  cfg.max_batch = 100;
  runtime::StreamRuntime rt(interest, hazard, cfg);
  const auto report = rt.play(feed);
  const auto want =
      engine::make_engine("cpu-sweep", interest, hazard)->price(book);

  ASSERT_EQ(report.run.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(report.run.results[i].id, want.results[i].id) << "at " << i;
    EXPECT_EQ(report.run.results[i].spread_bps, want.results[i].spread_bps)
        << "at " << i;
  }
}

TEST(StreamRuntime, DeadlineMissesAreCounted) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  runtime::StreamConfig cfg;
  cfg.lanes = 1;
  cfg.max_batch = 1024;       // never fills from 3 events
  cfg.max_wait_us = 100'000;  // flush only happens at drain
  cfg.deadline_us = 1;        // everything that waited measurably misses
  runtime::StreamRuntime rt(interest, hazard, cfg);
  for (std::int32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rt.push(option_with_id(i)));
  }
  // Let the events age well past the 1 us deadline before the drain flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto report = rt.finish();
  EXPECT_EQ(report.events_priced, 3u);
  EXPECT_EQ(report.deadline_misses, 3u);
  ASSERT_EQ(report.batches.size(), 1u);
  EXPECT_EQ(report.batches[0].deadline_misses, 3u);
  EXPECT_GT(report.p50_latency_seconds, 1e-6);
}

TEST(StreamRuntime, PushAfterCloseFailsAndFinishIsSingleUse) {
  runtime::StreamConfig cfg;
  cfg.lanes = 1;
  runtime::StreamRuntime rt(test_interest(), test_hazard(), cfg);
  rt.close();
  EXPECT_FALSE(rt.push(option_with_id(1)));
  EXPECT_FALSE(rt.push_hazard_quote(0, 0.02));
  const auto report = rt.finish();
  EXPECT_EQ(report.events_in, 0u);
  EXPECT_EQ(report.events_priced, 0u);
  EXPECT_EQ(report.modelled_seconds, 0.0);
  EXPECT_THROW(rt.finish(), Error);
}

TEST(StreamRuntime, BadHazardUpdateSurfacesAtFinish) {
  runtime::StreamConfig cfg;
  cfg.lanes = 2;
  runtime::StreamRuntime rt(test_interest(), test_hazard(), cfg);
  rt.push(option_with_id(0));
  rt.push_hazard_quote(1'000'000, 0.02);  // knot out of range
  EXPECT_THROW(rt.finish(), Error);
}

TEST(StreamRuntime, PollBatchesHarvestsEachBatchExactlyOnceInOrder) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  runtime::StreamConfig cfg;
  cfg.lanes = 2;
  cfg.max_batch = 6;  // divides the push count: every batch flushes on full
  cfg.max_wait_us = 100;
  runtime::StreamRuntime rt(interest, hazard, cfg);

  constexpr std::size_t kOptions = 60;
  for (std::size_t i = 0; i < kOptions; ++i) {
    ASSERT_TRUE(rt.push(option_with_id(static_cast<std::int32_t>(i))));
  }

  // Harvest incrementally while the lanes drain. Every poll returns only
  // batches not seen before, and the stitched stream is the contiguous
  // batch sequence 0..n-1.
  std::vector<cds::SpreadResult> polled;
  std::vector<double> latencies;
  double pricing_seconds = 0.0;
  std::size_t next_index = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (polled.size() < kOptions) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "poll_batches never surfaced all batches";
    for (const auto& batch : rt.poll_batches()) {
      EXPECT_EQ(batch.index, next_index) << "batch replayed or skipped";
      ++next_index;
      polled.insert(polled.end(), batch.rows.results.begin(),
                    batch.rows.results.end());
      latencies.insert(latencies.end(), batch.latency_seconds.begin(),
                       batch.latency_seconds.end());
      pricing_seconds += batch.pricing_seconds;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // At least one batch per max_batch window; timer flushes may add more.
  EXPECT_GE(next_index, kOptions / cfg.max_batch);
  // Fully harvested: an extra poll is empty, not a replay from index 0.
  EXPECT_TRUE(rt.poll_batches().empty());
  ASSERT_EQ(polled.size(), kOptions);
  for (std::size_t i = 0; i < kOptions; ++i) {
    EXPECT_EQ(polled[i].id, static_cast<std::int32_t>(i)) << "at " << i;
  }

  // Every row left through poll_batches(), so finish() returns none; its
  // accounting still counts every batch and event.
  const auto report = rt.finish();
  EXPECT_TRUE(report.run.results.empty());
  EXPECT_EQ(report.events_priced, kOptions);
  ASSERT_EQ(report.batches.size(), next_index);
  for (std::size_t b = 0; b < next_index; ++b) {
    EXPECT_EQ(report.batches[b].index, b);
  }
  EXPECT_EQ(report.run.invocations, next_index);
  EXPECT_EQ(report.run.kernel_seconds, pricing_seconds);
  EXPECT_EQ(report.max_latency_seconds,
            *std::max_element(latencies.begin(), latencies.end()));
  EXPECT_EQ(report.p50_latency_seconds, percentile(latencies, 50.0));
  EXPECT_EQ(report.p99_latency_seconds, percentile(latencies, 99.0));
}

void append_rows(const engine::PricingRun& part, engine::PricingRun& all) {
  all.results.insert(all.results.end(), part.results.begin(),
                     part.results.end());
  all.sensitivities.insert(all.sensitivities.end(),
                           part.sensitivities.begin(),
                           part.sensitivities.end());
  all.cs01_ladder.insert(all.cs01_ladder.end(), part.cs01_ladder.begin(),
                         part.cs01_ladder.end());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_rows(const engine::PricingRun& got,
                      const engine::PricingRun& want) {
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].id, want.results[i].id) << "at " << i;
    EXPECT_EQ(bits(got.results[i].spread_bps),
              bits(want.results[i].spread_bps))
        << "at " << i;
  }
  ASSERT_EQ(got.sensitivities.size(), want.sensitivities.size());
  for (std::size_t i = 0; i < want.sensitivities.size(); ++i) {
    const auto& g = got.sensitivities[i];
    const auto& w = want.sensitivities[i];
    EXPECT_EQ(bits(g.spread_bps), bits(w.spread_bps)) << "at " << i;
    EXPECT_EQ(bits(g.cs01), bits(w.cs01)) << "at " << i;
    EXPECT_EQ(bits(g.ir01), bits(w.ir01)) << "at " << i;
    EXPECT_EQ(bits(g.rec01), bits(w.rec01)) << "at " << i;
    EXPECT_EQ(bits(g.jtd), bits(w.jtd)) << "at " << i;
  }
  ASSERT_EQ(got.cs01_ladder.size(), want.cs01_ladder.size());
  for (std::size_t i = 0; i < want.cs01_ladder.size(); ++i) {
    EXPECT_EQ(bits(got.cs01_ladder[i]), bits(want.cs01_ladder[i]))
        << "at " << i;
  }
}

TEST(StreamRuntime, PolledRowsThenFinishRowsEqualANeverPolledRun) {
  // Each batch leaves the runtime once: after a partial harvest, the polled
  // rows followed by finish()'s rows are a never-polled run's rows bit for
  // bit, in price mode and in risk mode with ladder rows, at any lane count
  // and across hazard updates.
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(160, 12), hazard);
  const auto push = [](runtime::StreamRuntime& rt,
                       const workload::QuoteFeedEvent& event) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      return rt.push_hazard_quote(event.knot, event.rate);
    }
    return rt.push(event.option);
  };
  for (const std::string engine : {"cpu-batch", "cpu-batch-risk"}) {
    for (const unsigned lanes : {1u, 3u}) {
      SCOPED_TRACE(engine + " on " + std::to_string(lanes) + " lanes");
      runtime::StreamConfig cfg;
      cfg.engine = engine;
      cfg.lanes = lanes;
      cfg.max_batch = 8;
      cfg.max_wait_us = 50;
      if (engine == "cpu-batch-risk") {
        cfg.ladder_edges = {0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 30.0};
      }
      runtime::StreamRuntime never_polled(interest, hazard, cfg);
      const auto want = never_polled.play(feed);

      // Harvest at least one batch of the first half, then push the rest
      // and finish without polling again, so both sides hold rows.
      runtime::StreamRuntime rt(interest, hazard, cfg);
      const std::size_t half = feed.size() / 2;
      for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(push(rt, feed[i]));
      engine::PricingRun got;
      std::size_t polled_batches = 0;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (polled_batches == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        for (const auto& batch : rt.poll_batches()) {
          append_rows(batch.rows, got);
          got.ladder_buckets = batch.rows.ladder_buckets;
          ++polled_batches;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (std::size_t i = half; i < feed.size(); ++i) {
        ASSERT_TRUE(push(rt, feed[i]));
      }
      const auto report = rt.finish();
      EXPECT_FALSE(report.run.results.empty());
      EXPECT_EQ(report.run.ladder_buckets, want.run.ladder_buckets);
      append_rows(report.run, got);

      EXPECT_EQ(got.ladder_buckets, want.run.ladder_buckets);
      expect_same_rows(got, want.run);
      EXPECT_EQ(report.events_priced, want.events_priced);
      EXPECT_EQ(report.hazard_updates, want.hazard_updates);
      EXPECT_GT(report.batches.size(), polled_batches);
    }
  }
}

TEST(StreamRuntime, RejectsNonCpuEngines) {
  runtime::StreamConfig cfg;
  cfg.engine = "vectorised";
  EXPECT_THROW(
      runtime::StreamRuntime(test_interest(), test_hazard(), cfg), Error);
}

}  // namespace
}  // namespace cdsflow
