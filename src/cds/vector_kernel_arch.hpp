/// \file vector_kernel_arch.hpp
/// Internal interface between the vector-kernel dispatcher
/// (vector_kernel.cpp) and the per-architecture translation units
/// (vector_kernel_avx2.cpp / vector_kernel_avx512.cpp).
///
/// The arch TUs are compiled with -mavx2/-mavx512* flags, so they must not
/// instantiate inline functions from common headers (a comdat copy built
/// with wider ISA flags could be the one the linker keeps, crashing hosts
/// without that ISA). Everything crosses this boundary as raw pointers and
/// sizes; the dispatcher unpacks HazardPrefix / TermStructure / TimePoint
/// spans and handles the scalar tails, and the arch entry points require
/// n to be a multiple of the lane width.

#pragma once

#include <cstddef>
#include <cstdint>

namespace cdsflow::cds::simd {

/// Bucketed knot-search acceleration table (optional: buckets == nullptr
/// makes the arch kernels fall back to the branchless binary search).
///
/// A view of the caller-owned simd::SearchTable (vector_kernel.hpp), which
/// is built once per curve's knot times and shared by every column over
/// them: a uniform grid of
/// `n_buckets` buckets over [t0, t0 + n_buckets * width] whose width is at
/// most *half* the smallest knot gap, where buckets[k] is the exact
/// std::lower_bound (or std::upper_bound, per table) index of the bucket's
/// anchor `fma(k, width, t0)`. A lane query re-derives its exact bucket
/// with the same fma anchors and then needs at most ONE masked advance:
/// a half-gap bucket can hold at most one knot, so the bound index of any
/// t inside bucket k is buckets[k] or buckets[k] + 1. The result is the
/// exact scalar search index -- bit-identical bracket choice, ~10 data-
/// dependent gathers per lane replaced by 2.
struct SearchLut {
  const std::int64_t* buckets = nullptr;
  double t0 = 0.0;
  double width = 0.0;
  double inv_width = 0.0;
  std::int64_t n_buckets = 0;
};

/// TermStructure, flattened (times/values SoA; size >= 2 -- single-knot
/// curves are degenerate constants the dispatcher handles itself).
struct CurveView {
  const double* times;
  const double* values;
  std::size_t size;
  /// Optional upper_bound table over `times`.
  SearchLut lut;
};

/// HazardPrefix, flattened.
struct PrefixView {
  const double* times;
  const double* rates;
  const double* lambda;
  std::size_t size;
  /// Optional lower_bound table over `times`.
  SearchLut lut;
};

}  // namespace cdsflow::cds::simd

// Each arch namespace implements the same kernels (see
// vector_kernel_impl.hpp for the single shared implementation):
//
//   survival_column:  q_out[i] = exp(-Lambda(t_i)); ts strided by
//                     `t_stride` doubles (TimePoint arrays pass 2).
//   discount_column:  d_out[i] = exp(-interpolate_fast(t_i) * t_i).
//   combine_spreads:  spread_out[i * out_stride] from the recovery rates
//                     (strided AoS doubles), grid ids and grid sums.
//   exp_columns:      out[i] = exp_pd(xs[i]).
//   sweep_survival_block: one lane-width group of scenarios at once,
//                     scenario-major (see the declaration comment below).
//   sweep_ladder_scan: the running leg sums along one payment ladder for
//                     one lane-width group of scenarios (see below).
//   sweep_stub_sums:  each grid's sums from its ladder prefix and its stub
//                     point, for one lane-width group (see below).

// sweep_survival_block contract (scenario-sweep fast path, one group of
// exactly W = lane-width scenarios, scenario-minor within a W-wide row):
//
//   rates_T:  n_knots rows of W doubles; rates_T[j*W + w] is scenario w's
//             hazard rate on knot segment j.
//   knot_dt:  n_knots scalars; knot_dt[j] = tau_j - tau_{j-1} (tau_{-1}=0),
//             precomputed by the dispatcher with scalar subtractions.
//   lambda_T: (n_knots + 1) rows of W doubles, written by the kernel. Row 0
//             must be pre-zeroed by the caller; row j+1 becomes
//             Lambda(tau_j) per scenario, accumulated in exactly
//             make_hazard_prefix's order (plain mul + add, no fma).
//   base_row / rate_row: per schedule point i, the lambda_T row holding the
//             point's prefix base (the scalar lower_bound index j; row 0 is
//             the j==0 zero base, row n_knots the beyond-last-knot base) and
//             the rates_T row holding its segment rate (min(j, n_knots-1)).
//   point_dt: per point, t_i - seg_begin_i precomputed scalar.
//   q_T:      n_points rows of W doubles; q_T[i*W + w] =
//             exp_pd(-(lambda_base + rate * point_dt)) -- element-wise the
//             identical IEEE expression integrated_hazard_prefix +
//             survival_column evaluate, so each scenario's column is
//             bit-identical to a one-scenario tabulation at the same level.
//
// sweep_ladder_scan contract (one payment ladder x one W-wide group):
//
//   dts:      the ladder's n_points accrual intervals (TimePoint::dt).
//   discount: the ladder's shared discount column (broadcast -- a hazard
//             sweep never moves D).
//   q_T:      n_points rows of W doubles, the ladder's slice of the group's
//             survival columns (sweep_survival_block's layout).
//   sums_T:   n_points rows of 3 x W doubles, written: row i holds each
//             lane's premium, accrual and payoff sums over points [0, i].
//             Per lane, the kernel runs the reference walk's exact serial
//             accumulation (price_breakdown) -- q_prev starts at 1,
//             dq = q_prev - q, premium += (d*q)*dt,
//             accrual += ((0.5*d)*dq)*dt, payoff += d*dq, all plain
//             mul/add -- so every running sum is bit-identical per lane to
//             the scalar walk.
//
// sweep_stub_sums contract (n_grids grids x one W-wide group):
//
//   prefix_row: per grid, the ladder row of its last point before the stub
//             (its ladder's row prefix - 1 in sums_T / ladder_q_T), or -1
//             for a one-point schedule (zero sums, q_prev = 1).
//   stub_dts / stub_discount: per grid, the stub's accrual and D.
//   stub_q_T: n_grids rows of W doubles, the stubs' survival.
//   annuity_out / payoff_out: n_grids rows of W doubles. Per lane: the
//             prefix row's sums continued by the stub's step (the scan's
//             expressions), then annuity = premium + accrual
//             (checked_grid_sums' add) -- bit-identical to walking the
//             grid's whole schedule from zero.
#if defined(CDSFLOW_HAVE_AVX2)
namespace cdsflow::cds::simd::detail_avx2 {
void survival_column(const PrefixView& prefix, const double* ts,
                     std::size_t t_stride, std::size_t n, double* q_out);
void discount_column(const CurveView& curve, const double* ts,
                     std::size_t t_stride, std::size_t n, double* d_out);
void combine_spreads(const double* recovery, std::size_t rec_stride,
                     const std::uint32_t* grid_of, const double* annuity,
                     const double* payoff, std::size_t n, double* spread_out,
                     std::size_t out_stride);
void exp_columns(const double* xs, std::size_t n, double* out);
void sweep_survival_block(const double* rates_T, std::size_t n_knots,
                          const double* knot_dt, double* lambda_T,
                          const double* point_dt,
                          const std::int64_t* base_row,
                          const std::int64_t* rate_row, std::size_t n_points,
                          double* q_T);
void sweep_ladder_scan(const double* dts, const double* discount,
                       const double* q_T, std::size_t n_points,
                       double* sums_T);
void sweep_stub_sums(const std::int64_t* prefix_row, const double* ladder_q_T,
                     const double* sums_T, const double* stub_dts,
                     const double* stub_discount, const double* stub_q_T,
                     std::size_t n_grids, double* annuity_out,
                     double* payoff_out);
}  // namespace cdsflow::cds::simd::detail_avx2
#endif

#if defined(CDSFLOW_HAVE_AVX512)
namespace cdsflow::cds::simd::detail_avx512 {
void survival_column(const PrefixView& prefix, const double* ts,
                     std::size_t t_stride, std::size_t n, double* q_out);
void discount_column(const CurveView& curve, const double* ts,
                     std::size_t t_stride, std::size_t n, double* d_out);
void combine_spreads(const double* recovery, std::size_t rec_stride,
                     const std::uint32_t* grid_of, const double* annuity,
                     const double* payoff, std::size_t n, double* spread_out,
                     std::size_t out_stride);
void exp_columns(const double* xs, std::size_t n, double* out);
void sweep_survival_block(const double* rates_T, std::size_t n_knots,
                          const double* knot_dt, double* lambda_T,
                          const double* point_dt,
                          const std::int64_t* base_row,
                          const std::int64_t* rate_row, std::size_t n_points,
                          double* q_T);
void sweep_ladder_scan(const double* dts, const double* discount,
                       const double* q_T, std::size_t n_points,
                       double* sums_T);
void sweep_stub_sums(const std::int64_t* prefix_row, const double* ladder_q_T,
                     const double* sums_T, const double* stub_dts,
                     const double* stub_discount, const double* stub_q_T,
                     std::size_t n_grids, double* annuity_out,
                     double* payoff_out);
}  // namespace cdsflow::cds::simd::detail_avx512
#endif
