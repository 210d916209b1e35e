/// \file vector_kernel.hpp
/// Runtime-dispatched SIMD vector-lane kernel for the batched CPU fast path.
///
/// The paper's Fig. 3 "vectorisation" replicates the expensive hazard /
/// interpolation sub-functions into parallel lanes behind a round-robin
/// distributor (hls/replicate.hpp models exactly that structure). This
/// module is the host-side counterpart: the same per-time-point curve
/// queries -- Lambda(t) lookup + exp for the survival column, bracket
/// search + lerp + exp for the discount column -- executed W points at a
/// time in x86 vector lanes:
///
///     level     lanes W   HLS analogue (Fig. 3 / replicate.hpp)
///     kScalar   1         un-replicated sub-function
///     kAvx2     4         4 replica lanes
///     kAvx512   8         8 replica lanes  (paper: 6, URAM-feed limited)
///
/// The lane count *is* the replication factor: one AVX-512 register holds
/// what the paper feeds six replica kernels, and `bench_fig3_vector_lanes`
/// (modelled) and `bench_cpu_vector` (native) tell the same story. See
/// docs/VECTOR_LANES.md for the full correspondence and the precision
/// contract.
///
/// Dispatch rules (docs/VECTOR_LANES.md "Runtime dispatch"):
///   * detect_level(): best level both compiled in (CMake flag checks;
///     CDSFLOW_DISABLE_SIMD forces none) and supported by the running CPU
///     (AVX-512 needs F+DQ+VL, AVX2 needs AVX2+FMA).
///   * active_level(): detect_level(), optionally clamped *down* by the
///     CDSFLOW_SIMD environment variable ("scalar" | "avx2" | "avx512");
///     cached after first use. This is what the engines run with.
///   * Every entry point takes an explicit Level and resolves it with
///     resolve_level(), so a request can never exceed what the host
///     supports; Level::kScalar is always valid and executes the exact
///     scalar-reference arithmetic (bit-identical fallback).
///
/// Precision contract (documented in docs/VECTOR_LANES.md, every bound
/// asserted by tests/test_vector_kernel.cpp; the numeric bounds live in
/// cds/precision.hpp as VectorKernelContract):
///   * kScalar level: bit-identical to the scalar reference (ReferencePricer,
///     compute_sensitivities / cs01_ladder). The pricers in src/cds call
///     these kernels at every level and never branch on it, so this is the
///     only place kScalar differs from a vector level.
///   * The integrated hazard and the interpolated rate use the reference
///     expressions (no fused contractions), so the only vector-vs-scalar
///     deviation in the columns is exp_pd() vs std::exp -- bounded by
///     VectorKernelContract::kExpUlpBound ulp.
///   * The leg-sum reductions and dq subtraction stay on the scalar path in
///     the reference association order (batch_pricer.cpp), so no
///     reassociation tolerance is ever needed; spreads and Greeks inherit
///     only the column ulp noise (kSpreadRelTol / kGreekRelTol).
///   * At a vector level the lane *tail* evaluates a scalar twin of exp_pd
///     (std::fma mirrors the lane fmadd bit for bit), so a point's column
///     value never depends on where the lane head happens to end. Results
///     at a fixed level are therefore invariant under sharding, thread
///     chunking, micro-batching and incremental per-grid re-tabulation --
///     the runtime's bit-determinism guarantees hold for cpu-vec exactly as
///     for cpu-batch.
///   * combine_spreads() performs the identical IEEE ops per lane as the
///     scalar combine: bit-exact at every level.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cds/curve.hpp"
#include "cds/hazard.hpp"
#include "cds/schedule.hpp"
#include "cds/types.hpp"

namespace cdsflow::cds::simd {

/// Vector-lane width selector, ordered so narrower levels compare less.
enum class Level { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// True when at least one SIMD translation unit was compiled in (i.e. the
/// build did not use -DCDSFLOW_DISABLE_SIMD=ON and the compiler supported
/// the -m flags). The scalar-only CI lane asserts this is false.
bool compiled_with_simd();

/// Best level both compiled in and supported by the running CPU.
Level detect_level();

/// detect_level() clamped down by the CDSFLOW_SIMD environment variable
/// ("scalar" | "avx2" | "avx512"; anything else is ignored). Cached after
/// the first call -- the level the engines construct kernels with.
Level active_level();

/// What a request for `level` actually executes: min(level, detect_level()).
Level resolve_level(Level level);

/// Vector lanes of a level: 1 / 4 / 8 -- the CPU replication factor
/// mirroring hls::ReplicationConfig::lanes.
unsigned lanes(Level level);

const char* to_string(Level level);

/// Which std:: search a SearchTable reproduces: integrated_hazard_prefix
/// finds a point's segment with lower_bound, interpolate_fast its bracket
/// with upper_bound.
enum class Bound { kLower, kUpper };

/// The bucketed knot-search table over one curve's knot times (the lane
/// kernels' SearchLut, vector_kernel_arch.hpp). Each bucket is at most half
/// the smallest knot gap wide and holds the exact std::lower_bound (or
/// upper_bound) index of its anchor, so a vector-level column finds a
/// point's knot with two gathers instead of ~log2(knots) dependent ones and
/// lands on the identical index. The table depends on the knot times only:
/// every column over the same times -- base, bumped and scenario curves
/// alike -- shares one. Callers own it (BatchPricer::Workspace keeps one
/// SearchTables pair) and pass it to the column calls; kScalar never reads
/// it.
class SearchTable {
 public:
  /// No buckets: the vector kernels run the branchless binary search.
  SearchTable() = default;

  /// Builds the table over strictly increasing `times` with one forward
  /// merge walk over the anchors, O(knots). A curve with fewer than two
  /// knots, a non-increasing gap, or a table that would need more than 8x
  /// the knot count in buckets (strongly uneven spacing) gets no buckets,
  /// so its columns keep the binary search.
  SearchTable(std::span<const double> times, Bound bound);

  /// True when built over exactly these knot times (bitwise compare,
  /// O(knots)). A table must serve no other curve.
  bool built_for(std::span<const double> times) const;

  Bound bound() const { return bound_; }
  /// Knot count of the curve the table was built over.
  std::size_t knots() const { return times_.size(); }
  /// buckets()[k] is the bound index of the anchor fma(k, width(), t0());
  /// empty when the curve admits no table.
  std::span<const std::int64_t> buckets() const { return buckets_; }
  double t0() const { return t0_; }
  double width() const { return width_; }

 private:
  std::vector<double> times_;
  std::vector<std::int64_t> buckets_;
  double t0_ = 0.0;
  double width_ = 0.0;
  Bound bound_ = Bound::kLower;
};

/// The two tables the columns over one (interest, hazard) pair share.
struct SearchTables {
  SearchTable hazard;    ///< lower_bound over the hazard knots (survival)
  SearchTable interest;  ///< upper_bound over the interest knots (discount)

  /// Makes both tables serve these curves at `level`: a table built for
  /// other knot times is rebuilt, a matching one is kept after an O(knots)
  /// compare. At kScalar nothing is built or compared; that level runs the
  /// reference searches.
  void prepare(const TermStructure& interest_curve,
               const HazardPrefix& hazard_prefix, Level level);
};

/// Fills the survival column Q(t_i) = exp(-Lambda(t_i)) over `points`.
/// Lambda uses the integrated_hazard_prefix expressions verbatim. At vector
/// levels the lane head finds each point's segment through `search` (a
/// lower-bound table built for `prefix.times`, or an empty one for the
/// binary search), and the lane tail (points.size() % lanes) runs the
/// scalar exp_pd twin so the column's bits are alignment-independent;
/// kScalar runs the scalar reference (std::exp) throughout.
void survival_column(const HazardPrefix& prefix, const SearchTable& search,
                     std::span<const TimePoint> points, std::span<double> out,
                     Level level);

/// Fills the discount column D(t_i) = exp(-r(t_i) * t_i) with r from
/// TermStructure::interpolate_fast's bracket-search + lerp arithmetic.
/// `search` is an upper-bound table built for `interest.times()`, or empty.
void discount_column(const TermStructure& interest, const SearchTable& search,
                     std::span<const TimePoint> points, std::span<double> out,
                     Level level);

/// Both base-grid columns in one call (BatchPricer::build_grids).
void tabulate_columns(const TermStructure& interest,
                      const HazardPrefix& prefix, const SearchTables& search,
                      std::span<const TimePoint> points,
                      std::span<double> discount, std::span<double> survival,
                      Level level);

/// The branch-free per-option combine, W options per iteration: gathers
/// each option's grid sums by id and evaluates
///   spread = (kBasisPointsPerUnit * ((1 - recovery) * payoff[g])) / annuity[g]
/// with the identical per-lane IEEE operations as the scalar loop --
/// bit-exact at every level (asserted by tests).
void combine_spreads(std::span<const CdsOption> options,
                     std::span<const std::uint32_t> grid_of,
                     std::span<const double> annuity,
                     std::span<const double> payoff,
                     std::span<SpreadResult> out, Level level);

/// exp() over a column -- the one transcendental the vector path replaces.
/// kScalar runs std::exp; vector levels run the Cody-Waite + polynomial
/// exp_pd (lanes on the head, its bit-identical scalar twin on the tail)
/// whose error vs std::exp is bounded by
/// VectorKernelContract::kExpUlpBound ulp (asserted by tests). Exposed so
/// the precision tests can measure the bound directly.
void exp_columns(std::span<const double> xs, std::span<double> out,
                 Level level);

/// Scenario-group survival tabulation for the sweep pricer: one group of
/// exactly W = lanes(resolve_level(level)) scenarios, *scenarios* in the
/// vector lanes instead of schedule points. All scenarios in a hazard sweep
/// share the knot times and the schedule, so the segment bracket of every
/// point is search-free: the caller precomputes, once per sweep,
///
///   knot_dt[j]   = tau_j - tau_{j-1}          (tau_{-1} = 0)
///   base_row[i]  = std::lower_bound index j of point t_i
///   rate_row[i]  = min(j, n_knots - 1)
///   point_dt[i]  = t_i - seg_begin_i
///
/// and transposes the group's hazard rates into `rates_T` (n_knots rows of
/// W doubles, scenario-minor). The kernel then accumulates the prefix
/// lambdas into `lambda_T` ((n_knots + 1) rows of W; row 0 is the zero
/// base, row n_knots the beyond-last-knot base) in make_hazard_prefix's
/// exact order and writes q_T[i * W + w] = exp(-(base + rate * dt)) -- per
/// lane the identical IEEE expression survival_column evaluates, with
/// exp_pd at vector levels and std::exp at kScalar. Every operation is
/// lane-wise, so a scenario's column bits depend only on its own rates:
/// results are invariant under scenario grouping, padding of a partial
/// final group, sharding and thread count (at a fixed level).
void sweep_survival_group(std::span<const double> rates_T,
                          std::span<const double> knot_dt,
                          std::span<double> lambda_T,
                          std::span<const double> point_dt,
                          std::span<const std::int64_t> base_row,
                          std::span<const std::int64_t> rate_row,
                          std::span<double> q_T, Level level);

/// Scenario-group running leg sums along one payment ladder (the points
/// i / frequency every grid at that frequency shares), W =
/// lanes(resolve_level(level)) scenarios abreast. `discount` is the
/// ladder's shared discount column and `q_T` its slice of
/// sweep_survival_group's scenario-minor survival rows; row i of `sums_T`
/// (3 x W doubles) receives each lane's premium, accrual and payoff sums
/// over points [0, i]. Per lane this is the reference walk's exact serial
/// accumulation (price_breakdown) -- kScalar literally runs it; vector
/// levels run the identical plain mul/add expressions lane-wise -- so a
/// scenario's sums are bit-identical to a one-scenario walk and invariant
/// under grouping, sharding and thread count.
void sweep_ladder_sums_group(std::span<const double> dts,
                             std::span<const double> discount,
                             std::span<const double> q_T,
                             std::span<double> sums_T, Level level);

/// Scenario-group grid sums, W scenarios abreast: grid g's schedule is its
/// ladder's points up to `prefix_row[g]` (a row of `ladder_q_T` /
/// `sums_T`; -1 for a one-point schedule) followed by its stub point
/// (stub_dts[g], stub_discount[g], stub_q_T's row g). The prefix row's
/// running sums continue by the stub's step, and the outputs hold one
/// annuity (premium + accrual, checked_grid_sums' add) and one payoff sum
/// per lane and grid -- per lane bit-identical to walking the grid's whole
/// schedule from zero. The annuity positivity check stays with the caller.
void sweep_stub_sums_group(std::span<const std::int64_t> prefix_row,
                           std::span<const double> ladder_q_T,
                           std::span<const double> sums_T,
                           std::span<const double> stub_dts,
                           std::span<const double> stub_discount,
                           std::span<const double> stub_q_T,
                           std::span<double> annuity_out,
                           std::span<double> payoff_out, Level level);

}  // namespace cdsflow::cds::simd
