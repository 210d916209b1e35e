/// \file stream_runtime.hpp
/// Streaming quote-ingest runtime: live feed -> bounded queue -> micro-
/// batches -> concurrent pricer lanes -> deterministic event-order merge,
/// with per-event deadline accounting.
///
/// This is the paper's AAT-style real-time future-work scenario built on the
/// pieces the batch runtime already proved out: the same ThreadPool drives
/// the lanes, each in-flight micro-batch prices on the replica of the pool
/// worker running it (replica k belongs to worker k), and the same
/// list-schedule gives the modelled (paper-style) throughput figure next to
/// the measured wall figure.
///
/// Dataflow:
///
///   producers --push--> IngestQueue (bounded; block / drop-oldest, counted)
///                           |
///                      dispatcher thread: MicroBatcher
///                      (flush on max_batch or max_wait)
///                           |              .
///                   option micro-batch     hazard-quote event
///                           |                   |
///                  ThreadPool lane           barrier (drain in-flight),
///                  (StreamPricer replica)    then update *every* replica
///                           |                incrementally
///                  BatchCollector.put(batch), keyed by batch index
///                           |
///                  take_ready(): each batch leaves once, in index order
///                  == event ingest order, whatever order lanes finished in
///                           |
///                  poll_batches() while live, finish() at the end: the
///                  ledger records each batch; finish() appends the rows
///                  of batches never polled (append_shard_rows)
///
/// Determinism guarantee: micro-batches are formed and indexed in ingest
/// (sequence) order, every lane replica holds identical curve/grid state
/// between barriers (hazard updates are applied to all replicas at a
/// barrier, in event order), and batches leave the collector by index. The
/// polled rows followed by finish()'s rows for a given accepted-event
/// sequence are therefore bit-identical to replaying the same events
/// through one StreamPricer serially, regardless of lane count, batch
/// boundaries, completion order or polling. (Under kDropOldest the
/// *accepted* sequence itself depends on producer/dispatcher timing; the
/// guarantee is order- and value-determinism for whatever survived, which
/// is what a lossy feed can promise.)
///
/// Deadline accounting definitions (all anchored at the queue's ingest
/// stamp):
///   * ingest-to-result latency -- per option event: completion time of its
///     micro-batch minus its ingest stamp. Reported as p50 / p99 / max.
///   * deadline miss            -- an option event whose ingest-to-result
///     latency exceeded `deadline_us` (0 disables).
///   * queue-depth high water   -- max ingest-queue depth observed.
/// The modelled/wall throughput split follows the batch runtime: modelled =
/// events / list-schedule makespan of the per-batch pricing times over the
/// lanes; wall = events / (last batch completion - first event ingest).

#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cds/curve.hpp"
#include "cds/stream_pricer.hpp"
#include "common/thread_annotations.hpp"
#include "engines/engine.hpp"
#include "runtime/ingest_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/feed.hpp"

namespace cdsflow::runtime {

struct StreamConfig {
  /// CPU-family engine name, "cpu[-batch|-vec|-sweep][-risk]". The stream
  /// lanes always run the batched grid kernel; the kernel token sets its
  /// SIMD level through engine::cpu_kernel_level ("cpu" and "-batch"
  /// kScalar, "-vec" and "-sweep" the host's best), so a one-lane stream
  /// prices bit-identically to the engine of the same name. "-risk"
  /// switches the micro-batches to Greeks. The name carries no lane count.
  std::string engine = "cpu-batch";
  /// Pricer lanes (= replicas). 0 selects hardware_concurrency (all cores).
  unsigned lanes = 0;
  std::size_t queue_capacity = 8192;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Micro-batch flush bounds: flush when `max_batch` events are pending or
  /// the oldest pending event has waited `max_wait_us` since ingest.
  std::size_t max_batch = 1024;
  std::uint64_t max_wait_us = 500;
  /// Ingest-to-result deadline for the miss counter; 0 disables.
  std::uint64_t deadline_us = 0;
  /// Risk-mode parameters (engine name carrying "-risk").
  double risk_bump = 1e-4;
  std::vector<double> ladder_edges;
};

/// The pricer every lane of a stream with `config` runs: risk mode from the
/// engine name's "-risk" token, the SIMD level from its kernel
/// (engine::cpu_kernel_level), bump and ladder edges from `config`. Throws
/// cdsflow::Error for a name outside the CPU grammar. Shared by
/// StreamRuntime and the service's fit calibration, so a calibrated lane
/// prices like a live one.
cds::StreamPricerConfig stream_pricer_config(const StreamConfig& config);

/// Per micro-batch accounting, in batch (= event) order.
struct StreamBatchOutcome {
  std::size_t index = 0;
  std::size_t events = 0;  ///< option events priced in this batch
  unsigned lane = 0;       ///< replica that actually priced it
  double pricing_seconds = 0.0;
  double max_latency_seconds = 0.0;
  std::uint64_t deadline_misses = 0;
};

struct StreamReport {
  /// Merged run: results (and, in risk mode, sensitivities / cs01_ladder)
  /// in event-ingest order of the batches poll_batches() never handed out
  /// (all of them if never polled); kernel_seconds sums the per-batch
  /// pricing times, total_seconds is the modelled lane makespan,
  /// invocations the batch count, over every batch, polled or not.
  engine::PricingRun run;
  std::vector<StreamBatchOutcome> batches;

  unsigned lanes = 1;
  /// Feed accounting.
  std::uint64_t events_in = 0;      ///< accepted into the queue
  std::uint64_t events_priced = 0;  ///< option events that produced results
  std::uint64_t hazard_updates = 0;
  std::uint64_t events_dropped = 0;  ///< evicted by kDropOldest
  std::uint64_t blocked_pushes = 0;  ///< kBlock pushes that had to wait
  std::size_t queue_high_water = 0;
  /// Incremental-risk accounting (sums over all lanes' pricers).
  std::uint64_t grids_retabulated = 0;
  std::uint64_t full_rebuild_grids = 0;  ///< what per-update rebuilds cost
  /// Deadline accounting (see file header for definitions).
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;
  std::uint64_t deadline_misses = 0;
  /// Modelled vs wall throughput split (see file header).
  double modelled_seconds = 0.0;
  double modelled_events_per_second = 0.0;
  double wall_seconds = 0.0;
  double wall_events_per_second = 0.0;
  double batches_per_second = 0.0;
};

namespace stream_detail {

/// One priced micro-batch as a lane hands it back.
struct BatchResult {
  std::size_t index = 0;
  unsigned lane = 0;
  double pricing_seconds = 0.0;
  StreamClock::time_point done{};
  /// Its rows in event order: results and, in risk mode, sensitivities and
  /// cs01_ladder (ladder_buckets per option).
  engine::PricingRun rows;
  /// Per option event, batch order: done - ingest.
  std::vector<double> latency_seconds;
};

/// Thread-safe store of priced micro-batches keyed by batch index. Lanes put
/// batches in any order; the one reader takes them out strictly in index
/// order -- the streaming counterpart of the batch runtime's shard merge.
class BatchCollector {
 public:
  /// Any lane, any order. Throws on an index already stored or taken.
  void put(BatchResult result) CDSFLOW_EXCLUDES(mutex_);
  /// The one reader (one consumer thread): moves out the contiguous run of
  /// completed batches from the first index not yet taken, stopping at the
  /// first gap, and forgets them. The last read, once no batch is in
  /// flight, passes the number of batches `submitted` in all and throws
  /// unless that run ends there with nothing left behind (a lost batch).
  std::vector<BatchResult> take_ready(
      std::optional<std::size_t> submitted = std::nullopt)
      CDSFLOW_EXCLUDES(mutex_);

 private:
  Mutex mutex_;
  std::map<std::size_t, BatchResult> stored_ CDSFLOW_GUARDED_BY(mutex_);
  /// First index not yet taken.
  std::size_t next_ CDSFLOW_GUARDED_BY(mutex_) = 0;
};

}  // namespace stream_detail

class StreamRuntime {
 public:
  /// Builds the lane replicas up front (each copies the curves, as the
  /// batch runtime's engine replicas do) and starts the dispatcher. Throws
  /// cdsflow::Error for non-CPU engine names or invalid parameters.
  StreamRuntime(cds::TermStructure interest, cds::TermStructure hazard,
                StreamConfig config = {});
  ~StreamRuntime();

  StreamRuntime(const StreamRuntime&) = delete;
  StreamRuntime& operator=(const StreamRuntime&) = delete;

  /// Producer API (thread-safe, many producers). Returns false once the
  /// stream is closed.
  bool push(const cds::CdsOption& option);
  bool push_hazard_quote(std::size_t knot, double rate);

  /// Closes ingest: queued events still drain, further pushes fail.
  void close();

  /// Closes ingest, drains everything, joins the dispatcher and returns the
  /// report: the accounting of every batch, and the rows of the batches
  /// poll_batches() never handed out. Call at most once, from the thread
  /// that polls; rethrows the first lane/dispatcher exception, if any.
  StreamReport finish();

  /// Convenience: plays a pre-materialised feed -- pacing producers by the
  /// events' arrival offsets (sleep-until; offsets of 0 push back-to-back)
  /// -- then finish()es.
  StreamReport play(const std::vector<workload::QuoteFeedEvent>& feed);

  /// Session hook for live consumers (the pricing service): moves out the
  /// micro-batches completed since the previous poll_batches() call, in
  /// batch-index (= event ingest) order, while the stream stays open. The
  /// runtime keeps only their accounting: finish() still counts them, but
  /// returns only the rows never polled. Because batches are returned only
  /// once their whole contiguous prefix is complete, the polled rows
  /// followed by finish()'s are the rows of a never-polled run (see file
  /// header). Call from one consumer thread.
  std::vector<stream_detail::BatchResult> poll_batches();

  unsigned lanes() const { return lanes_; }
  bool risk_mode() const { return pricer_config_.risk_mode; }
  std::size_t ladder_buckets() const;
  const StreamConfig& config() const { return config_; }
  /// Description of one lane replica, for reports.
  std::string worker_description() const;

 private:
  void dispatch_loop();
  /// Submits one option micro-batch to the pool (dispatcher thread only).
  void submit_batch(std::vector<QuoteEvent> events);
  /// Waits for every in-flight micro-batch (dispatcher thread only).
  void barrier();
  /// Enters a batch taken from the collector in the ledger.
  void record(const stream_detail::BatchResult& batch);

  StreamConfig config_;
  cds::StreamPricerConfig pricer_config_;
  unsigned lanes_ = 1;

  std::vector<std::unique_ptr<cds::StreamPricer>> pricers_;
  IngestQueue queue_;
  std::unique_ptr<ThreadPool> pool_;
  stream_detail::BatchCollector collector_;

  /// Dispatcher-confined state: written only by dispatch_loop() on
  /// dispatcher_, read by finish() strictly after dispatcher_.join() (the
  /// join is the publication point -- a happens-before edge the analysis
  /// has no vocabulary for; see docs/CONCURRENCY.md). Not guarded by any
  /// capability on purpose: adding a mutex here would claim a concurrency
  /// that never happens.
  std::thread dispatcher_;
  std::vector<std::future<void>> in_flight_;
  std::size_t next_batch_index_ = 0;
  std::uint64_t hazard_updates_ = 0;
  std::exception_ptr failure_;
  bool first_ingest_set_ = false;
  StreamClock::time_point first_ingest_{};

  /// Ledger of the batches handed out so far, in index order: outcome,
  /// event latencies and latest completion. Consumer-thread state (the
  /// thread calling poll_batches() and finish()).
  std::vector<StreamBatchOutcome> ledger_;
  std::vector<double> ledger_latencies_;
  StreamClock::time_point ledger_last_done_{};

  bool finished_ = false;
};

}  // namespace cdsflow::runtime
