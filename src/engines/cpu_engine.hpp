/// \file cpu_engine.hpp
/// The paper's CPU comparator: a bespoke C++ version of the engine, run
/// multi-threaded on a 24-core Xeon Platinum 8260M.
///
/// This engine *really executes*: it prices with native code on the calling
/// thread and reports measured wall-clock time. The kernel (CpuKernel, the
/// "-batch" / "-vec" / "-sweep" token of the registry name) is one of:
///
///   * reference (default, "cpu") -- the paper's naive comparator: per-option
///     schedule allocation avoided via a reused buffer, but per-point
///     O(knots) curve scans and exps exactly as the reference model performs
///     them (cds::ReferencePricer);
///   * batch ("cpu-batch") -- the batched SoA fast path (cds::BatchPricer):
///     schedule dedup + precomputed curve grids, the host-side counterpart
///     of the paper's dataflow restructuring, on one un-replicated lane
///     (simd::Level::kScalar). Spreads are bit-identical to the reference
///     kernel (see batch_pricer.hpp), so "cpu-batch" runs merge
///     bit-identically in the sharded runtime;
///   * vec ("cpu-vec") -- the same kernel on the SIMD lanes at the host's
///     best level (cds/vector_kernel.hpp; AVX-512 8 lanes, AVX2 4 lanes,
///     one lane as the fallback). The CPU analogue of the paper's Fig. 3
///     lane replication (hls/replicate.hpp); precision contract in
///     cds::VectorKernelContract and docs/VECTOR_LANES.md;
///   * sweep ("cpu-sweep") -- the scenario-sweep family (cds::SweepPricer /
///     runtime::SweepRuntime). For a plain price() call one scenario on the
///     base curves IS the batch tabulation, so it prices exactly like vec;
///     the kernel lets the registry and planner construct, round-trip and
///     probe sweep candidates through the standard CPU grammar.
///
/// cpu_kernel_level() is the one kernel -> SIMD level mapping, shared with
/// the streaming runtime. Any kernel can additionally run in *risk mode*
/// (config.risk_mode, the "-risk" token): the run then carries per-option
/// CS01/IR01/Rec01/JTD (and optionally a bucketed CS01 ladder) next to the
/// spreads -- the reference kernel by per-option bumped repricing, the
/// others by bumping each unique schedule grid once
/// (BatchPricer::price_with_sensitivities).
///
/// The engine starts no threads. Multi-core CPU runs go through
/// runtime::PortfolioRuntime: one engine per ShardRunner lane, lane 0
/// pricing on the caller's thread, and with shard_size = ceil(n / workers)
/// one contiguous shard per lane -- the paper's static per-thread
/// partition, merged bit for bit (the paper observes the scalar workload
/// scales poorly anyway, ~9x on 24 cores, being memory-bound on the curve
/// scans).

#pragma once

#include <optional>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/pricer.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

/// The CPU engine's kernel, in registry-name order.
enum class CpuKernel { kReference, kBatch, kVec, kSweep };

/// The SIMD tier a kernel's batch pricer runs at: kScalar for kReference and
/// kBatch, simd::active_level() (the host's best, clamped by CDSFLOW_SIMD)
/// for kVec and kSweep. On a host without SIMD support -- or under
/// CDSFLOW_SIMD=scalar / -DCDSFLOW_DISABLE_SIMD -- every kernel runs
/// kScalar, so vec prices exactly like batch, bit for bit.
cds::simd::Level cpu_kernel_level(CpuKernel kernel);

struct CpuEngineConfig {
  /// Which kernel prices (see the file comment). The reference kernel
  /// survives as the paper's naive comparator and for parity checks.
  CpuKernel kernel = CpuKernel::kReference;
  /// Compute per-option sensitivities (CS01/IR01/Rec01/JTD, plus the CS01
  /// ladder when ladder_edges is set) instead of spreads alone. With the
  /// reference kernel this loops compute_sensitivities/cs01_ladder per
  /// option (the naive post-pricing workflow); with the others it runs
  /// BatchPricer::price_with_sensitivities over the precomputed grids.
  /// run.results still carries (id, spread), so risk runs merge through the
  /// sharded runtime unchanged.
  bool risk_mode = false;
  /// Central-difference bump for risk mode (compute_sensitivities default).
  double risk_bump = 1e-4;
  /// CS01 ladder bucket edges for risk mode; empty disables the ladder.
  std::vector<double> ladder_edges = {};
};

class CpuEngine final : public Engine {
 public:
  CpuEngine(cds::TermStructure interest, cds::TermStructure hazard,
            CpuEngineConfig config = {});

  std::string name() const override;
  std::string description() const override;

  PricingRun price(std::span<const cds::CdsOption> options) override;

  CpuKernel kernel() const { return kernel_; }
  /// The SIMD tier the batch pricer actually runs at (cpu_kernel_level,
  /// post hardware clamp; kScalar for the reference kernel).
  cds::simd::Level kernel_level() const { return kernel_level_; }
  bool risk_mode() const { return risk_; }

 private:
  /// Exactly one is present: the reference pricer for the reference
  /// kernel, the batch pricer for the others.
  std::optional<cds::ReferencePricer> reference_pricer_;
  std::optional<cds::BatchPricer> batch_pricer_;
  /// Scratch kept warm across price() calls: the batch (risk) workspace or
  /// the scalar schedule buffer, whichever kernel/mode is active. An engine
  /// object is never priced on concurrently; lanes own separate replicas.
  struct Scratch {
    cds::BatchPricer::Workspace batch;
    cds::BatchPricer::RiskWorkspace risk;
    std::vector<cds::TimePoint> schedule;
  } scratch_;
  cds::BatchRiskConfig risk_config_;
  CpuKernel kernel_ = CpuKernel::kReference;
  bool risk_ = false;
  cds::simd::Level kernel_level_ = cds::simd::Level::kScalar;
};

}  // namespace cdsflow::engine
