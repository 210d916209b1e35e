#include "runtime/stream_runtime.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "engines/registry.hpp"
#include "runtime/shard.hpp"

namespace cdsflow::runtime {

namespace stream_detail {

void BatchCollector::put(BatchResult result) {
  MutexLock lock(mutex_);
  const std::size_t index = result.index;
  const bool fresh =
      index >= next_ && stored_.try_emplace(index, std::move(result)).second;
  CDSFLOW_ASSERT(fresh, "micro-batch merge got a batch index twice");
}

std::vector<BatchResult> BatchCollector::take_ready(
    std::optional<std::size_t> submitted) {
  MutexLock lock(mutex_);
  std::vector<BatchResult> ready;
  while (!stored_.empty() && stored_.begin()->first == next_) {
    ready.push_back(std::move(stored_.extract(stored_.begin()).mapped()));
    ++next_;
  }
  CDSFLOW_ASSERT(!submitted || (next_ == *submitted && stored_.empty()),
                 "micro-batch merge lost a batch");
  return ready;
}

}  // namespace stream_detail

namespace {

std::chrono::nanoseconds us_to_duration(std::uint64_t us) {
  return std::chrono::nanoseconds(us * 1000);
}

}  // namespace

cds::StreamPricerConfig stream_pricer_config(const StreamConfig& config) {
  engine::CpuEngineConfig cpu;
  CDSFLOW_EXPECT(engine::parse_cpu_engine_name(config.engine, cpu),
                 "stream runtime needs a CPU-family engine name "
                 "(cpu[-batch|-vec|-sweep][-risk]); simulated engines price "
                 "through the batch runtime");
  cds::StreamPricerConfig pricer;
  pricer.risk_mode = cpu.risk_mode;
  pricer.risk_bump = config.risk_bump;
  pricer.ladder_edges = config.ladder_edges;
  pricer.kernel_level = engine::cpu_kernel_level(cpu.kernel);
  return pricer;
}

StreamRuntime::StreamRuntime(cds::TermStructure interest,
                             cds::TermStructure hazard, StreamConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity, config_.policy) {
  CDSFLOW_EXPECT(config_.max_batch > 0, "max_batch must be positive");
  pricer_config_ = stream_pricer_config(config_);

  lanes_ = config_.lanes != 0
               ? config_.lanes
               : std::max(1u, std::thread::hardware_concurrency());

  pricers_.reserve(lanes_);
  for (unsigned i = 0; i < lanes_; ++i) {
    pricers_.push_back(std::make_unique<cds::StreamPricer>(interest, hazard,
                                                           pricer_config_));
  }
  pool_ = std::make_unique<ThreadPool>(lanes_);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

StreamRuntime::~StreamRuntime() {
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_->stop();
}

bool StreamRuntime::push(const cds::CdsOption& option) {
  return queue_.push(option_event(option));
}

bool StreamRuntime::push_hazard_quote(std::size_t knot, double rate) {
  return queue_.push(hazard_quote_event(knot, rate));
}

void StreamRuntime::close() { queue_.close(); }

std::size_t StreamRuntime::ladder_buckets() const {
  return pricers_.front()->ladder_buckets();
}

std::string StreamRuntime::worker_description() const {
  std::string desc = "streaming grid pricer (persistent batched kernel";
  if (pricer_config_.risk_mode) {
    desc += ", risk mode";
    const std::size_t buckets = pricers_.front()->ladder_buckets();
    if (buckets > 0) {
      desc += ", " + std::to_string(buckets) + "-bucket ladder";
    }
  }
  return desc + ")";
}

void StreamRuntime::submit_batch(std::vector<QuoteEvent> events) {
  if (events.empty()) return;
  const std::size_t index = next_batch_index_++;
  // shared_ptr because ThreadPool tasks are std::function (copyable).
  auto batch = std::make_shared<std::vector<QuoteEvent>>(std::move(events));
  in_flight_.push_back(pool_->submit([this, index, batch](unsigned lane) {
    cds::StreamPricer& pricer = *pricers_[lane];
    const std::size_t n = batch->size();

    stream_detail::BatchResult out;
    out.index = index;
    out.lane = lane;
    std::vector<cds::CdsOption> options;
    options.reserve(n);
    for (const QuoteEvent& event : *batch) options.push_back(event.option);
    engine::PricingRun& rows = out.rows;
    rows.results.resize(n);

    const auto t0 = StreamClock::now();
    if (pricer.risk_mode()) {
      rows.ladder_buckets = pricer.ladder_buckets();
      rows.sensitivities.resize(n);
      rows.cs01_ladder.resize(n * rows.ladder_buckets);
      pricer.price_with_sensitivities(options, rows.results, rows.sensitivities,
                                      rows.cs01_ladder);
    } else {
      pricer.price(options, rows.results);
    }
    const auto t1 = StreamClock::now();

    out.pricing_seconds = std::chrono::duration<double>(t1 - t0).count();
    out.done = t1;
    out.latency_seconds.reserve(n);
    for (const QuoteEvent& event : *batch) {
      out.latency_seconds.push_back(
          std::chrono::duration<double>(t1 - event.ingest).count());
    }
    collector_.put(std::move(out));
  }));
}

void StreamRuntime::barrier() {
  for (auto& f : in_flight_) f.get();  // rethrows the first batch failure
  in_flight_.clear();
}

void StreamRuntime::dispatch_loop() {
  try {
    MicroBatcher batcher(config_.max_batch,
                         us_to_duration(config_.max_wait_us));
    for (;;) {
      std::optional<QuoteEvent> event;
      if (batcher.open()) {
        event = queue_.pop_for(batcher.time_until_due(StreamClock::now()));
      } else {
        event = queue_.pop();  // parked until an event arrives or we drain
      }
      if (event) {
        if (!first_ingest_set_) {
          first_ingest_ = event->ingest;
          first_ingest_set_ = true;
        }
        if (event->kind == QuoteEvent::Kind::kHazardQuote) {
          // A quote update is an ordering point: everything ingested before
          // it prices on the old curve, everything after on the new one.
          // Flush, drain the in-flight batches, then move every lane
          // replica -- each re-tabulating only its affected grids.
          if (batcher.open()) submit_batch(batcher.take());
          barrier();
          for (auto& pricer : pricers_) {
            pricer->update_hazard_quote(event->knot, event->rate);
          }
          ++hazard_updates_;
        } else if (batcher.add(std::move(*event))) {
          submit_batch(batcher.take());
        }
        continue;
      }
      // Timed out or drained: flush an overdue partial batch either way.
      if (batcher.due(StreamClock::now())) submit_batch(batcher.take());
      if (queue_.drained()) {
        if (batcher.open()) submit_batch(batcher.take());
        break;
      }
    }
    barrier();
  } catch (...) {
    failure_ = std::current_exception();
    // Release parked producers and let every in-flight batch retire before
    // the dispatcher exits (their tasks reference runtime state).
    queue_.close();
    for (auto& f : in_flight_) {
      if (f.valid()) f.wait();
    }
    in_flight_.clear();
  }
}

StreamReport StreamRuntime::finish() {
  CDSFLOW_EXPECT(!finished_, "StreamRuntime::finish() may be called once");
  finished_ = true;
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_->stop();
  if (failure_) std::rethrow_exception(failure_);

  StreamReport report;
  report.lanes = lanes_;
  report.hazard_updates = hazard_updates_;
  const IngestQueueStats qstats = queue_.stats();
  report.events_in = qstats.accepted;
  report.events_dropped = qstats.dropped_oldest;
  report.blocked_pushes = qstats.blocked_pushes;
  report.queue_high_water = qstats.high_water;
  for (const auto& pricer : pricers_) {
    report.grids_retabulated += pricer->stats().grids_retabulated;
    report.full_rebuild_grids += pricer->stats().full_rebuild_grids;
  }

  // The batches never polled: their rows are the report's, appended in
  // index order like the batch runtime's shards.
  for (const auto& batch : collector_.take_ready(next_batch_index_)) {
    const std::size_t first_event = ledger_latencies_.size();
    record(batch);
    append_shard_rows({batch.index, first_event, ledger_latencies_.size()},
                      batch.rows, report.run);
  }
  std::vector<double> pricing_seconds;
  pricing_seconds.reserve(ledger_.size());
  for (const StreamBatchOutcome& outcome : ledger_) {
    report.events_priced += outcome.events;
    report.deadline_misses += outcome.deadline_misses;
    report.run.kernel_seconds += outcome.pricing_seconds;
    pricing_seconds.push_back(outcome.pricing_seconds);
  }
  report.run.invocations = ledger_.size();
  report.batches = std::move(ledger_);

  if (!ledger_latencies_.empty()) {
    report.max_latency_seconds = *std::max_element(ledger_latencies_.begin(),
                                                   ledger_latencies_.end());
    report.p50_latency_seconds = percentile(ledger_latencies_, 50.0);
    report.p99_latency_seconds =
        percentile(std::move(ledger_latencies_), 99.0);
  }

  report.modelled_seconds =
      pricing_seconds.empty()
          ? 0.0
          : list_schedule_makespan(pricing_seconds, lanes_);
  report.run.total_seconds = report.modelled_seconds;
  if (report.modelled_seconds > 0.0) {
    report.modelled_events_per_second =
        static_cast<double>(report.events_priced) / report.modelled_seconds;
    report.run.options_per_second = report.modelled_events_per_second;
  }
  if (!report.batches.empty()) {  // so first_ingest_ is set
    report.wall_seconds = std::chrono::duration<double>(ledger_last_done_ -
                                                        first_ingest_)
                              .count();
  }
  if (report.wall_seconds > 0.0) {
    report.wall_events_per_second =
        static_cast<double>(report.events_priced) / report.wall_seconds;
    report.batches_per_second =
        static_cast<double>(report.batches.size()) / report.wall_seconds;
  }
  return report;
}

std::vector<stream_detail::BatchResult> StreamRuntime::poll_batches() {
  auto ready = collector_.take_ready();
  for (const auto& batch : ready) record(batch);
  return ready;
}

void StreamRuntime::record(const stream_detail::BatchResult& batch) {
  const double deadline_seconds =
      static_cast<double>(config_.deadline_us) * 1e-6;
  StreamBatchOutcome outcome;
  outcome.index = batch.index;
  outcome.events = batch.rows.results.size();
  outcome.lane = batch.lane;
  outcome.pricing_seconds = batch.pricing_seconds;
  for (const double latency : batch.latency_seconds) {
    outcome.max_latency_seconds =
        std::max(outcome.max_latency_seconds, latency);
    if (config_.deadline_us > 0 && latency > deadline_seconds) {
      ++outcome.deadline_misses;
    }
  }
  ledger_.push_back(outcome);
  ledger_latencies_.insert(ledger_latencies_.end(),
                           batch.latency_seconds.begin(),
                           batch.latency_seconds.end());
  ledger_last_done_ = std::max(ledger_last_done_, batch.done);
}

StreamReport StreamRuntime::play(
    const std::vector<workload::QuoteFeedEvent>& feed) {
  const auto t0 = StreamClock::now();
  for (const auto& event : feed) {
    if (event.offset_seconds > 0.0) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<StreamClock::duration>(
                   std::chrono::duration<double>(event.offset_seconds)));
    }
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      push_hazard_quote(event.knot, event.rate);
    } else {
      push(event.option);
    }
  }
  return finish();
}

}  // namespace cdsflow::runtime
