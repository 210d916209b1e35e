/// \file vector_kernel_impl.hpp
/// Single shared implementation of the per-architecture vector kernels.
/// Included ONLY by the arch translation units, which define
///
///   CDSFLOW_SIMD_NS      detail_avx2 | detail_avx512
///   CDSFLOW_SIMD_WIDTH   4 | 8
///
/// and are compiled with the matching -m flags (CMake
/// set_source_files_properties). The width-4 block wraps AVX2+FMA, the
/// width-8 block AVX-512 F/DQ/VL; everything below the ops layer is
/// width-generic.
///
/// Numerics (the basis of the precision contract in docs/VECTOR_LANES.md):
///
///   * lower_bound / upper_bound are branchless binary searches producing
///     exactly std::lower_bound / std::upper_bound's index per lane -- the
///     bracket choice can never differ from the scalar path.
///   * integrated_hazard / interp_fast evaluate the *reference expressions*
///     (hazard.cpp / curve.cpp) with plain mul/add/div -- no fused
///     contractions -- so given the same bracket they produce values within
///     an ulp of the scalar build (bit-identical when the scalar build does
///     not contract either).
///   * exp_pd is the only replaced transcendental: Cody-Waite two-term ln2
///     argument reduction (with FMA) + a degree-13 Taylor/Horner polynomial
///     + exact 2^n scaling via exponent bits. |r| <= ln2/2 bounds the
///     truncation error below 1e-17 relative; total error vs std::exp stays
///     well inside VectorKernelContract::kExpUlpBound (= 4) ulp, asserted
///     by tests/test_vector_kernel.cpp over the full pricing domain.

#if !defined(CDSFLOW_SIMD_NS) || !defined(CDSFLOW_SIMD_WIDTH)
#error "vector_kernel_impl.hpp must be included by an arch TU"
#endif

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "cds/vector_kernel_arch.hpp"

namespace cdsflow::cds::simd::CDSFLOW_SIMD_NS {

namespace {

// ---------------------------------------------------------------- ops -----
// blend(m, a, b) selects b where the mask is set, a where it is clear.

#if CDSFLOW_SIMD_WIDTH == 8

using VecD = __m512d;
using VecI = __m512i;
using Mask = __mmask8;
constexpr unsigned kW = 8;

inline VecD set1(double v) { return _mm512_set1_pd(v); }
inline VecD loadu(const double* p) { return _mm512_loadu_pd(p); }
inline void storeu(double* p, VecD v) { _mm512_storeu_pd(p, v); }
inline VecD add(VecD a, VecD b) { return _mm512_add_pd(a, b); }
inline VecD sub(VecD a, VecD b) { return _mm512_sub_pd(a, b); }
inline VecD mul(VecD a, VecD b) { return _mm512_mul_pd(a, b); }
inline VecD div(VecD a, VecD b) { return _mm512_div_pd(a, b); }
inline VecD fmadd(VecD a, VecD b, VecD c) { return _mm512_fmadd_pd(a, b, c); }
inline VecD fnmadd(VecD a, VecD b, VecD c) {
  return _mm512_fnmadd_pd(a, b, c);
}
inline VecD min(VecD a, VecD b) { return _mm512_min_pd(a, b); }
inline VecD max(VecD a, VecD b) { return _mm512_max_pd(a, b); }
inline VecD blend(Mask m, VecD a, VecD b) {
  return _mm512_mask_blend_pd(m, a, b);
}
inline Mask cmp_lt(VecD a, VecD b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
}
inline Mask cmp_le(VecD a, VecD b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
}
inline Mask cmp_ge(VecD a, VecD b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
}
inline VecI set1_i(std::int64_t v) { return _mm512_set1_epi64(v); }
inline VecI load_i(const std::int64_t* p) {
  return _mm512_load_si512(reinterpret_cast<const void*>(p));
}
inline VecI add_i(VecI a, VecI b) { return _mm512_add_epi64(a, b); }
inline VecI sub_i(VecI a, VecI b) { return _mm512_sub_epi64(a, b); }
inline Mask cmpgt_i(VecI a, VecI b) {
  return _mm512_cmpgt_epi64_mask(a, b);
}
inline VecI blend_i(Mask m, VecI a, VecI b) {
  return _mm512_mask_blend_epi64(m, a, b);
}
inline VecI sll52(VecI v) { return _mm512_slli_epi64(v, 52); }
inline VecI castd_i(VecD v) { return _mm512_castpd_si512(v); }
inline VecD casti_d(VecI v) { return _mm512_castsi512_pd(v); }
inline VecD gather(const double* base, VecI idx) {
  return _mm512_i64gather_pd(idx, base, 8);
}
inline VecI gather_i(const std::int64_t* base, VecI idx) {
  return _mm512_i64gather_epi64(idx, base, 8);
}
inline VecD floor_pd(VecD v) {
  return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
}
inline Mask mask_and(Mask a, Mask b) { return a & b; }
inline VecI widen_u32(const std::uint32_t* p) {
  return _mm512_cvtepu32_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}
inline VecD load_stride2(const double* p) {
  // Every other double from p[0..15]: two contiguous loads + one shuffle
  // beat an 8-lane gather by ~3x on gather-weak cores.
  const __m512d lo = _mm512_loadu_pd(p);
  const __m512d hi = _mm512_loadu_pd(p + 8);
  return _mm512_permutex2var_pd(
      lo, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), hi);
}

#else  // CDSFLOW_SIMD_WIDTH == 4

using VecD = __m256d;
using VecI = __m256i;
using Mask = __m256d;
constexpr unsigned kW = 4;

inline VecD set1(double v) { return _mm256_set1_pd(v); }
inline VecD loadu(const double* p) { return _mm256_loadu_pd(p); }
inline void storeu(double* p, VecD v) { _mm256_storeu_pd(p, v); }
inline VecD add(VecD a, VecD b) { return _mm256_add_pd(a, b); }
inline VecD sub(VecD a, VecD b) { return _mm256_sub_pd(a, b); }
inline VecD mul(VecD a, VecD b) { return _mm256_mul_pd(a, b); }
inline VecD div(VecD a, VecD b) { return _mm256_div_pd(a, b); }
inline VecD fmadd(VecD a, VecD b, VecD c) { return _mm256_fmadd_pd(a, b, c); }
inline VecD fnmadd(VecD a, VecD b, VecD c) {
  return _mm256_fnmadd_pd(a, b, c);
}
inline VecD min(VecD a, VecD b) { return _mm256_min_pd(a, b); }
inline VecD max(VecD a, VecD b) { return _mm256_max_pd(a, b); }
inline VecD blend(Mask m, VecD a, VecD b) {
  return _mm256_blendv_pd(a, b, m);
}
inline Mask cmp_lt(VecD a, VecD b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
inline Mask cmp_le(VecD a, VecD b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
inline Mask cmp_ge(VecD a, VecD b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
inline VecI set1_i(std::int64_t v) { return _mm256_set1_epi64x(v); }
inline VecI load_i(const std::int64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}
inline VecI add_i(VecI a, VecI b) { return _mm256_add_epi64(a, b); }
inline VecI sub_i(VecI a, VecI b) { return _mm256_sub_epi64(a, b); }
inline Mask cmpgt_i(VecI a, VecI b) {
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b));
}
inline VecI blend_i(Mask m, VecI a, VecI b) {
  return _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(a), _mm256_castsi256_pd(b), m));
}
inline VecI sll52(VecI v) { return _mm256_slli_epi64(v, 52); }
inline VecI castd_i(VecD v) { return _mm256_castpd_si256(v); }
inline VecD casti_d(VecI v) { return _mm256_castsi256_pd(v); }
inline VecD gather(const double* base, VecI idx) {
  return _mm256_i64gather_pd(base, idx, 8);
}
inline VecI gather_i(const std::int64_t* base, VecI idx) {
  return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base), idx,
                                8);
}
inline VecD floor_pd(VecD v) { return _mm256_floor_pd(v); }
inline Mask mask_and(Mask a, Mask b) { return _mm256_and_pd(a, b); }
inline VecI widen_u32(const std::uint32_t* p) {
  return _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline VecD load_stride2(const double* p) {
  // Every other double from p[0..7]: two contiguous loads + two shuffles
  // beat a 4-lane gather on gather-weak cores.
  const __m256d lo = _mm256_loadu_pd(p);      // {p0, p1, p2, p3}
  const __m256d hi = _mm256_loadu_pd(p + 4);  // {p4, p5, p6, p7}
  const __m256d u = _mm256_unpacklo_pd(lo, hi);  // {p0, p4, p2, p6}
  return _mm256_permute4x64_pd(u, 0b11011000);   // {p0, p2, p4, p6}
}

#endif

inline VecI min_i(VecI a, VecI b) { return blend_i(cmpgt_i(a, b), a, b); }
inline VecI max_i(VecI a, VecI b) { return blend_i(cmpgt_i(a, b), b, a); }
inline VecD negate(VecD v) { return sub(set1(0.0), v); }

/// Lane index offsets {0, stride, 2*stride, ...} for strided gathers.
inline VecI lane_steps(std::size_t stride) {
  alignas(64) std::int64_t buf[kW];
  for (unsigned w = 0; w < kW; ++w) {
    buf[w] = static_cast<std::int64_t>(w * stride);
  }
  return load_i(buf);
}

// ------------------------------------------------------------- exp_pd -----

inline VecD exp_pd(VecD x) {
  const VecD log2e = set1(1.44269504088896340736);
  // Cody-Waite split of ln2: hi has ~32 trailing zero bits, so n * hi is
  // exact for |n| < 2^20 and the reduction r = x - n*ln2 loses no bits.
  const VecD ln2_hi = set1(6.93147180369123816490e-01);
  const VecD ln2_lo = set1(1.90821492927058770002e-10);
  // 2^52 + 2^51: adding it rounds x*log2e to the nearest integer in the
  // low mantissa bits (two's complement for negatives).
  const VecD magic = set1(6755399441055744.0);

  // The pricing domain is tiny (|x| < ~50); the clamp only guards the
  // exponent-bit scaling against pathological inputs.
  x = max(min(x, set1(708.0)), set1(-708.0));

  const VecD t = fmadd(x, log2e, magic);
  const VecD n = sub(t, magic);  // round-to-nearest(x * log2e)
  const VecI ni = sub_i(castd_i(t), castd_i(magic));

  VecD r = fnmadd(n, ln2_hi, x);
  r = fnmadd(n, ln2_lo, r);  // |r| <= ln2/2

  // exp(r) ~= sum_{k=0..13} r^k / k!; remainder < 4e-18 relative.
  VecD p = set1(1.0 / 6227020800.0);         // 1/13!
  p = fmadd(p, r, set1(1.0 / 479001600.0));  // 1/12!
  p = fmadd(p, r, set1(1.0 / 39916800.0));   // 1/11!
  p = fmadd(p, r, set1(1.0 / 3628800.0));    // 1/10!
  p = fmadd(p, r, set1(1.0 / 362880.0));     // 1/9!
  p = fmadd(p, r, set1(1.0 / 40320.0));      // 1/8!
  p = fmadd(p, r, set1(1.0 / 5040.0));       // 1/7!
  p = fmadd(p, r, set1(1.0 / 720.0));        // 1/6!
  p = fmadd(p, r, set1(1.0 / 120.0));        // 1/5!
  p = fmadd(p, r, set1(1.0 / 24.0));         // 1/4!
  p = fmadd(p, r, set1(1.0 / 6.0));          // 1/3!
  p = fmadd(p, r, set1(0.5));                // 1/2!
  p = fmadd(p, r, set1(1.0));
  p = fmadd(p, r, set1(1.0));

  // 2^n as a bit pattern; n in [-1022, 1023] after the clamp above.
  const VecD scale = casti_d(sll52(add_i(ni, set1_i(1023))));
  return mul(p, scale);
}

// ----------------------------------------------------------- searches -----
// Branchless binary searches: `size` halves identically for every lane, so
// the loop trip count is uniform; only `low` is per-lane. Invariant: the
// answer lies in [low, low + size], hence every probe = low + size/2 is a
// valid index.

/// Per-lane std::lower_bound index: first i with arr[i] >= t.
inline VecI lower_bound(const double* arr, std::size_t count, VecD t) {
  VecI low = set1_i(0);
  std::size_t size = count;
  while (size > 0) {
    const std::size_t half = size / 2;
    const VecI probe = add_i(low, set1_i(static_cast<std::int64_t>(half)));
    const VecI moved =
        add_i(low, set1_i(static_cast<std::int64_t>(size - half)));
    const Mask advance = cmp_lt(gather(arr, probe), t);
    low = blend_i(advance, low, moved);
    size = half;
  }
  return low;
}

/// Per-lane std::upper_bound index: first i with arr[i] > t.
inline VecI upper_bound(const double* arr, std::size_t count, VecD t) {
  VecI low = set1_i(0);
  std::size_t size = count;
  while (size > 0) {
    const std::size_t half = size / 2;
    const VecI probe = add_i(low, set1_i(static_cast<std::int64_t>(half)));
    const VecI moved =
        add_i(low, set1_i(static_cast<std::int64_t>(size - half)));
    const Mask advance = cmp_le(gather(arr, probe), t);
    low = blend_i(advance, low, moved);
    size = half;
  }
  return low;
}

/// Per-lane bound index via the bucket table (SearchLut invariants in
/// vector_kernel_arch.hpp): the log2(knots) data-dependent gathers of the
/// binary search collapse to two. kUpper false gives std::lower_bound's
/// index, true std::upper_bound's -- exactly, so the bracket choice (and
/// hence every downstream bit) is identical to the binary-search path.
///
/// Steps, with s_k = fma(k, width, t0) -- the builder's own anchors, so
/// the lane fmadd reproduces them bit for bit:
///   1. k ~= floor((t - t0) * inv_width), clamped to [0, n_buckets - 1].
///      Rounding can misplace k by at most one bucket, so
///   2. step down where t < s_k, up where t >= s_{k+1}, re-clamp: now
///      s_k <= t < s_{k+1} exactly (or k is the clamped edge bucket).
///   3. j = buckets[k] (the bound of s_k); at most one knot lies in
///      [s_k, t), so advance by one where arr[j] is on t's wrong side.
template <bool kUpper>
inline VecI lut_bound(const double* arr, std::size_t count, VecD t,
                      const SearchLut& lut) {
  const VecD zero = set1(0.0);
  const VecD one = set1(1.0);
  const VecD t0 = set1(lut.t0);
  const VecD width = set1(lut.width);
  const VecD last_bucket = set1(static_cast<double>(lut.n_buckets - 1));
  VecD k = floor_pd(mul(sub(t, t0), set1(lut.inv_width)));
  k = max(min(k, last_bucket), zero);
  const VecD s_k = fmadd(k, width, t0);
  const VecD s_k1 = fmadd(add(k, one), width, t0);
  k = blend(cmp_lt(t, s_k), k, sub(k, one));
  k = blend(cmp_ge(t, s_k1), k, add(k, one));
  k = max(min(k, last_bucket), zero);
  // floor'ed doubles to int64 exactly, via the same magic-add bit trick as
  // exp_pd's exponent extraction (|k| < 2^51 always holds here).
  const VecD magic = set1(6755399441055744.0);  // 2^52 + 2^51
  const VecI ki = sub_i(castd_i(add(k, magic)), castd_i(magic));
  VecI j = gather_i(lut.buckets, ki);
  const VecI n = set1_i(static_cast<std::int64_t>(count));
  const VecI jc = min_i(j, set1_i(static_cast<std::int64_t>(count) - 1));
  const VecD pivot = gather(arr, jc);
  const Mask on_wrong_side =
      kUpper ? cmp_le(pivot, t) : cmp_lt(pivot, t);
  const Mask advance = mask_and(on_wrong_side, cmpgt_i(n, j));
  return blend_i(advance, j, add_i(j, set1_i(1)));
}

// ------------------------------------------------------------ kernels -----

/// Lambda(t) per lane: integrated_hazard_prefix's expressions with the
/// branch structure turned into index clamps + blends. For j == size the
/// clamped j-1 / rate indices land on the last knot, which *is* the scalar
/// tail-extrapolation expression; for j == 0 the gathered base/seg are
/// blended to 0.0.
inline VecD integrated_hazard(const PrefixView& prefix, VecD t) {
  const VecI zero = set1_i(0);
  const VecI j = prefix.lut.buckets != nullptr
                     ? lut_bound<false>(prefix.times, prefix.size, t,
                                        prefix.lut)
                     : lower_bound(prefix.times, prefix.size, t);
  const Mask has_prev = cmpgt_i(j, zero);
  const VecI jm1 = max_i(sub_i(j, set1_i(1)), zero);
  const VecI jr =
      min_i(j, set1_i(static_cast<std::int64_t>(prefix.size) - 1));
  const VecD seg_begin =
      blend(has_prev, set1(0.0), gather(prefix.times, jm1));
  const VecD base = blend(has_prev, set1(0.0), gather(prefix.lambda, jm1));
  const VecD rate = gather(prefix.rates, jr);
  // base + rates[j] * (t - seg_begin), plain mul/add as in hazard.cpp.
  return add(base, mul(rate, sub(t, seg_begin)));
}

/// interpolate_fast per lane: upper_bound bracket, lerp_on_bracket
/// arithmetic, end clamps. curve.size >= 2 (dispatcher contract).
inline VecD interp_fast(const CurveView& curve, VecD t) {
  const VecI zero = set1_i(0);
  const VecI last =
      set1_i(static_cast<std::int64_t>(curve.size) - 2);
  const VecI ub = curve.lut.buckets != nullptr
                      ? lut_bound<true>(curve.times, curve.size, t, curve.lut)
                      : upper_bound(curve.times, curve.size, t);
  VecI lo = sub_i(ub, set1_i(1));
  lo = max_i(min_i(lo, last), zero);  // keep clamped lanes' gathers in range
  const VecI hi = add_i(lo, set1_i(1));
  const VecD t0 = gather(curve.times, lo);
  const VecD t1 = gather(curve.times, hi);
  const VecD v0 = gather(curve.values, lo);
  const VecD v1 = gather(curve.values, hi);
  // v0 + (v1 - v0) * (t - t0) / (t1 - t0), exactly lerp_on_bracket.
  VecD r = add(v0, div(mul(sub(v1, v0), sub(t, t0)), sub(t1, t0)));
  r = blend(cmp_le(t, set1(curve.times[0])), r, set1(curve.values[0]));
  r = blend(cmp_ge(t, set1(curve.times[curve.size - 1])), r,
            set1(curve.values[curve.size - 1]));
  return r;
}

}  // namespace

namespace {

/// Strided t load for the column kernels. The common strides dodge the
/// gather: contiguous (1) is a plain load, the TimePoint AoS stride (2) a
/// deinterleave -- branch is loop-invariant, predicted free. The lanes hold
/// ts[i*t_stride], ts[(i+1)*t_stride], ... whichever path runs.
inline VecD load_t(const double* ts, std::size_t t_stride, std::size_t i,
                   VecI steps) {
  if (t_stride == 1) {
    return loadu(ts + i);
  }
  if (t_stride == 2) {
    return load_stride2(ts + 2 * i);
  }
  return gather(
      ts, add_i(steps, set1_i(static_cast<std::int64_t>(i * t_stride))));
}

}  // namespace

void survival_column(const PrefixView& prefix, const double* ts,
                     std::size_t t_stride, std::size_t n, double* q_out) {
  const VecI steps = lane_steps(t_stride);
  for (std::size_t i = 0; i < n; i += kW) {
    const VecD t = load_t(ts, t_stride, i, steps);
    storeu(q_out + i, exp_pd(negate(integrated_hazard(prefix, t))));
  }
}

void discount_column(const CurveView& curve, const double* ts,
                     std::size_t t_stride, std::size_t n, double* d_out) {
  const VecI steps = lane_steps(t_stride);
  for (std::size_t i = 0; i < n; i += kW) {
    const VecD t = load_t(ts, t_stride, i, steps);
    const VecD r = interp_fast(curve, t);
    // exp(-r * t): the sign flip commutes with the multiply exactly.
    storeu(d_out + i, exp_pd(negate(mul(r, t))));
  }
}

void combine_spreads(const double* recovery, std::size_t rec_stride,
                     const std::uint32_t* grid_of, const double* annuity,
                     const double* payoff, std::size_t n, double* spread_out,
                     std::size_t out_stride) {
  const VecI steps = lane_steps(rec_stride);
  const VecD one = set1(1.0);
  const VecD bpu = set1(10000.0);  // kBasisPointsPerUnit
  alignas(64) double tmp[kW];
  for (std::size_t i = 0; i < n; i += kW) {
    const VecI ridx =
        add_i(steps, set1_i(static_cast<std::int64_t>(i * rec_stride)));
    const VecD rec = gather(recovery, ridx);
    const VecI g = widen_u32(grid_of + i);
    const VecD a = gather(annuity, g);
    const VecD pf = gather(payoff, g);
    // kBasisPointsPerUnit * ((1 - recovery) * payoff[g]) / annuity[g]:
    // the identical per-lane IEEE ops as the scalar combine -> bit-exact.
    const VecD spread = div(mul(bpu, mul(sub(one, rec), pf)), a);
    storeu(tmp, spread);
    for (unsigned w = 0; w < kW; ++w) {
      spread_out[(i + w) * out_stride] = tmp[w];
    }
  }
}

void exp_columns(const double* xs, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; i += kW) {
    storeu(out + i, exp_pd(loadu(xs + i)));
  }
}

void sweep_survival_block(const double* rates_T, std::size_t n_knots,
                          const double* knot_dt, double* lambda_T,
                          const double* point_dt,
                          const std::int64_t* base_row,
                          const std::int64_t* rate_row, std::size_t n_points,
                          double* q_T) {
  // Prefix chain, one add per knot for W scenarios at once. Plain mul +
  // add, never contracted -- make_hazard_prefix's exact accumulation per
  // lane (knot_dt carries the same scalar subtraction bits).
  VecD acc = loadu(lambda_T);  // row 0, pre-zeroed by the dispatcher
  for (std::size_t j = 0; j < n_knots; ++j) {
    acc = add(acc, mul(loadu(rates_T + j * kW), set1(knot_dt[j])));
    storeu(lambda_T + (j + 1) * kW, acc);
  }
  // Per schedule point: base + rate * dt is integrated_hazard_prefix's
  // expression with the branch structure resolved into precomputed row
  // indices (shared across every scenario -- the knot times never move in
  // a hazard sweep), then the same negate + exp_pd as survival_column.
  for (std::size_t i = 0; i < n_points; ++i) {
    const VecD base =
        loadu(lambda_T + static_cast<std::size_t>(base_row[i]) * kW);
    const VecD rate =
        loadu(rates_T + static_cast<std::size_t>(rate_row[i]) * kW);
    const VecD lam = add(base, mul(rate, set1(point_dt[i])));
    storeu(q_T + i * kW, exp_pd(negate(lam)));
  }
}

namespace {

/// One reference leg-sum step for W scenarios abreast: the point's terms in
/// leg_terms_from_discount's association order, plain mul/add, never
/// contracted, added to the running sums -- every lane reproduces the
/// scalar walk's step bit for bit. D and dt are scenario-invariant
/// (broadcast).
struct LaneSums {
  VecD premium, accrual, payoff;
};

inline LaneSums leg_step(LaneSums sums, VecD q_prev, VecD q, double d_s,
                         double dt_s) {
  const VecD d = set1(d_s);
  const VecD dt = set1(dt_s);
  const VecD dq = sub(q_prev, q);
  sums.premium = add(sums.premium, mul(mul(d, q), dt));
  sums.accrual = add(sums.accrual, mul(mul(mul(set1(0.5), d), dq), dt));
  sums.payoff = add(sums.payoff, mul(d, dq));
  return sums;
}

}  // namespace

void sweep_ladder_scan(const double* dts, const double* discount,
                       const double* q_T, std::size_t n_points,
                       double* sums_T) {
  LaneSums sums{set1(0.0), set1(0.0), set1(0.0)};
  VecD q_prev = set1(1.0);  // Q(0)
  for (std::size_t i = 0; i < n_points; ++i) {
    const VecD q = loadu(q_T + i * kW);
    sums = leg_step(sums, q_prev, q, discount[i], dts[i]);
    storeu(sums_T + i * 3 * kW, sums.premium);
    storeu(sums_T + i * 3 * kW + kW, sums.accrual);
    storeu(sums_T + i * 3 * kW + 2 * kW, sums.payoff);
    q_prev = q;
  }
}

void sweep_stub_sums(const std::int64_t* prefix_row, const double* ladder_q_T,
                     const double* sums_T, const double* stub_dts,
                     const double* stub_discount, const double* stub_q_T,
                     std::size_t n_grids, double* annuity_out,
                     double* payoff_out) {
  for (std::size_t g = 0; g < n_grids; ++g) {
    LaneSums sums{set1(0.0), set1(0.0), set1(0.0)};
    VecD q_prev = set1(1.0);  // Q(0): a one-point schedule
    if (prefix_row[g] >= 0) {
      const auto row = static_cast<std::size_t>(prefix_row[g]);
      sums = {loadu(sums_T + row * 3 * kW), loadu(sums_T + row * 3 * kW + kW),
              loadu(sums_T + row * 3 * kW + 2 * kW)};
      q_prev = loadu(ladder_q_T + row * kW);
    }
    sums = leg_step(sums, q_prev, loadu(stub_q_T + g * kW), stub_discount[g],
                    stub_dts[g]);
    // checked_grid_sums' annuity add; the positivity check stays with the
    // caller (per lane, with the scalar diagnostic).
    storeu(annuity_out + g * kW, add(sums.premium, sums.accrual));
    storeu(payoff_out + g * kW, sums.payoff);
  }
}

}  // namespace cdsflow::cds::simd::CDSFLOW_SIMD_NS
