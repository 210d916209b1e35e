/// \file engine.hpp
/// The engine abstraction: price a portfolio, report results and timing.
///
/// Six engines implement it, mirroring the paper's progression:
///
///   CpuEngine            the "bespoke C++ engine" -- natively executed on
///                        the calling thread and wall-clock timed (multi-
///                        core runs shard it across runtime lanes)
///   XilinxBaselineEngine the Vitis open-source library structure:
///                        sequential pipelined loops, II=7 accumulation
///   DataflowEngine       "Optimised Dataflow CDS engine": concurrent
///                        stages + Listing 1, restart per option
///   InterOptionEngine    "Dataflow inter-options": free-running region
///   VectorisedEngine     "Vectorisation of dataflow engine": 6-lane
///                        round-robin hazard/interp pools
///   MultiEngine          N engines with the portfolio split in chunks
///                        (Table II scaling)
///
/// FPGA engines run on the cycle-level simulator; their timing is simulated
/// kernel cycles at the configured clock plus modelled PCIe/dispatch
/// overheads (the paper includes transfer in every figure). The CPU engine's
/// timing is real measured wall time. Both kinds report the paper's metric:
/// options per second.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cds/risk.hpp"
#include "cds/types.hpp"
#include "engines/tokens.hpp"
#include "fpga/hls_cost_model.hpp"
#include "fpga/interconnect.hpp"
#include "sim/cycle.hpp"
#include "sim/trace.hpp"

namespace cdsflow::engine {

/// Everything a pricing run produced.
struct PricingRun {
  /// Spreads in submission order (engines that partition or reorder work
  /// must restore the original order).
  std::vector<cds::SpreadResult> results;

  /// Per-option sensitivities in submission order; filled only by risk-mode
  /// engines (empty otherwise). When present, sensitivities[i].spread_bps
  /// equals results[i].spread_bps, so risk runs shard and merge exactly like
  /// pricing runs.
  std::vector<cds::Sensitivities> sensitivities;
  /// Bucketed CS01 ladder, row-major [option][bucket] in submission order;
  /// empty unless a risk-mode engine was configured with ladder edges.
  std::vector<double> cs01_ladder;
  /// Buckets per option in cs01_ladder (0 when no ladder was computed).
  std::size_t ladder_buckets = 0;

  /// Simulated kernel cycles (0 for native CPU runs). Includes region
  /// restart overheads for the per-option engines.
  sim::Cycle kernel_cycles = 0;
  /// Kernel time in seconds (cycles / clock for FPGA, measured for CPU).
  double kernel_seconds = 0.0;
  /// Modelled host<->card transfer + dispatch time (0 for CPU).
  double transfer_seconds = 0.0;
  /// kernel_seconds + transfer_seconds.
  double total_seconds = 0.0;
  /// The paper's headline metric.
  double options_per_second = 0.0;
  /// Kernel invocations (options for per-option engines, 1 for streaming).
  std::uint64_t invocations = 0;

  void finalise(std::size_t n_options);
};

/// Configuration shared by the simulated FPGA engines.
struct FpgaEngineConfig {
  fpga::HlsCostModel cost = fpga::default_cost_model();
  fpga::InterconnectConfig interconnect{};

  /// Replication factor of the hazard/interpolation pools in the vectorised
  /// engine (the paper uses 6).
  unsigned vector_lanes = 6;

  /// Depth of per-time-point streams (HLS default 2).
  std::size_t tp_stream_depth = 2;
  /// Depth of per-option streams. The option-info stream that bypasses the
  /// time-point pipeline must cover the options concurrently in flight.
  std::size_t option_stream_depth = 16;

  /// Account PCIe transfer + kernel dispatch (paper includes it everywhere).
  bool include_transfer = true;

  /// Optional activity trace (figure benches). Only meaningful for engines
  /// that run a single simulation (free-running / vectorised).
  sim::Trace* trace = nullptr;

  /// Optional per-option arrival pacing for streaming-quote scenarios:
  /// returns the cycles until the *next* option becomes available (default:
  /// back-to-back batch streaming). Used by the latency benches that model
  /// the AAT-style real-time feed of the paper's future work.
  std::function<sim::Cycle(const OptionToken&)> option_arrival_pace;

  double clock_hz() const { return cost.kernel_clock_hz; }
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Short identifier ("vectorised", "cpu", ...).
  virtual std::string name() const = 0;
  /// One-line description as used in the report tables.
  virtual std::string description() const = 0;
  /// Prices the portfolio. Thread-compatible: no shared mutable state
  /// between calls on distinct engine objects. `options` is only borrowed
  /// for the call (callers pass subspans of a larger book): an engine must
  /// not keep the span, or any pointer into it, once price() returns.
  virtual PricingRun price(std::span<const cds::CdsOption> options) = 0;
};

/// Bytes moved host->card / card->host for a batch (512-bit-packed layout):
/// used by every FPGA engine's transfer accounting.
struct BatchTraffic {
  std::uint64_t curve_bytes = 0;
  std::uint64_t option_bytes = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t total() const {
    return curve_bytes + option_bytes + result_bytes;
  }
};

BatchTraffic batch_traffic(std::size_t curve_points, std::size_t n_options);

}  // namespace cdsflow::engine
