/// \file precision.hpp
/// Reduced-precision pricing -- the paper's future-work direction:
/// "further exploration around reduced precision, especially within the
/// context of the future Xilinx Versal ACAP with AI engines for
/// accelerating single precision floating point and fixed-point
/// arithmetic, would be very interesting." (Sec. V)
///
/// This module implements the numerical half of that study: the complete
/// CDS model evaluated in IEEE single precision (and a mixed mode that
/// keeps only the accumulations in double), so the accuracy cost of
/// dropping precision can be quantified in basis points against the fp64
/// golden model. The hardware half -- what single precision buys on the
/// FPGA -- is modelled by fpga::ReducedPrecisionModel.

#pragma once

#include <vector>

#include "cds/curve.hpp"
#include "cds/schedule.hpp"
#include "cds/types.hpp"

namespace cdsflow::cds {

enum class Precision {
  kDouble,        ///< fp64 everywhere (the golden model)
  kSingle,        ///< fp32 everywhere
  kMixed,         ///< fp32 arithmetic, fp64 accumulators (a common FPGA
                  ///< compromise: cheap multipliers, safe sums)
};

const char* to_string(Precision precision);

/// Prices one option with the requested arithmetic. kDouble reproduces the
/// golden model bit-for-bit.
double spread_bps_with_precision(const TermStructure& interest,
                                 const TermStructure& hazard,
                                 const CdsOption& option,
                                 Precision precision);

/// Same with a caller-owned schedule buffer, reusable across a book loop.
double spread_bps_with_precision(const TermStructure& interest,
                                 const TermStructure& hazard,
                                 const CdsOption& option, Precision precision,
                                 std::vector<TimePoint>& scratch);

/// Error summary of a reduced-precision pricer over a book.
struct PrecisionErrorReport {
  Precision precision = Precision::kSingle;
  double max_abs_error_bps = 0.0;
  double mean_abs_error_bps = 0.0;
  double max_rel_error = 0.0;
};

PrecisionErrorReport evaluate_precision(const TermStructure& interest,
                                        const TermStructure& hazard,
                                        const std::vector<CdsOption>& book,
                                        Precision precision);

/// The SIMD vector kernel's precision contract against the scalar batch
/// kernel (cds/vector_kernel.hpp; rationale and derivation in
/// docs/VECTOR_LANES.md). The vector path never reassociates a reduction --
/// leg sums always accumulate in the scalar reference's order -- so the only
/// divergence is the per-element column math: the polynomial exp and the
/// fused multiply-adds inside interpolation. Each bound below is asserted by
/// tests/test_vector_kernel.cpp; loosening one is an interface change and
/// must update the doc and the tests together.
struct VectorKernelContract {
  /// Vectorised exp vs std::exp, in units in the last place. Measured at 1
  /// ulp on both AVX2 and AVX-512; 4 leaves margin for other libms' scalar
  /// exp (itself not correctly rounded).
  static constexpr double kExpUlpBound = 4.0;
  /// Batch spreads, vector vs scalar kernel, relative. Column errors of a
  /// few ulp propagate through the premium/accrual/payoff sums and one
  /// division essentially unamplified; 1e-11 holds ~two decades of margin
  /// over the observed worst case. Rec01 obeys the same bound (it is a
  /// reweighting of base sums).
  static constexpr double kSpreadRelTol = 1e-11;
  /// CS01 / IR01 / ladder buckets, vector vs scalar kernel, relative term.
  static constexpr double kGreekRelTol = 1e-9;
  /// Absolute floor for Greeks of near-zero spreads, where both other terms
  /// of greek_tolerance() vanish.
  static constexpr double kGreekAbsFloor = 1e-12;
  /// The bound for one bumped Greek. Three regimes, take the largest:
  /// relative when the Greek is well away from zero; the amplified spread
  /// error otherwise -- the central difference (up - dn) / (2 * bump) * 1e-4
  /// scales each scenario spread's error by 1e-4 / (2 * bump) (= 0.5 at the
  /// default bump), which dominates for Greeks that are small relative to
  /// their spread (IR01 on a rate-insensitive book, far ladder buckets); and
  /// the hard floor when the spread itself is ~0.
  static constexpr double greek_tolerance(double greek, double spread_bps,
                                          double bump) {
    const double rel = kGreekRelTol * (greek < 0 ? -greek : greek);
    const double amplified = kSpreadRelTol *
                             (spread_bps < 0 ? -spread_bps : spread_bps) *
                             (1e-4 / (2.0 * bump));
    const double tol = rel > amplified ? rel : amplified;
    return tol > kGreekAbsFloor ? tol : kGreekAbsFloor;
  }
  // JTD (= 1 - R, no curve math) and the pass-3 spread combine are bit-exact
  // by construction: identical IEEE expressions evaluated per lane. The
  // kScalar level is bit-identical to the scalar reference pricers, not
  // merely within tolerance. Both are EXPECT_EQ'd in the tests, so they
  // carry no constant here.
};

}  // namespace cdsflow::cds
