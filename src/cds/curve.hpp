/// \file curve.hpp
/// Term structures: the interest-rate and hazard-rate inputs.
///
/// Both model constants are "a list of percentages ... in a given time
/// frame" (paper Sec. II-A): pairs of (year fraction, rate). The curve is
/// stored structure-of-arrays (times[], values[]) -- the layout both the
/// FPGA URAM replicas and the CPU engine scan -- with strictly increasing
/// times.
///
/// Rate lookup is linear interpolation between bracketing knots, clamped at
/// the ends. The FPGA kernels locate the bracket with a fixed-bound scan
/// over all points (that scan is precisely the interpolation cost the paper
/// vectorises); `find_bracket_scan` exposes the same loop for the engine
/// kernels while `interpolate` uses it so every code path computes identical
/// values.
///
/// A curve is immutable once built, so copies share one knot store: the
/// pricers each runtime lane holds copy their curves for free.

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace cdsflow::cds {

class TermStructure {
 public:
  TermStructure() = default;

  /// Builds a curve from matching time/value arrays. Times must be strictly
  /// increasing and non-negative; at least one point is required.
  TermStructure(std::vector<double> times, std::vector<double> values);

  std::size_t size() const { return times().size(); }
  bool empty() const { return times().empty(); }
  const std::vector<double>& times() const { return knots().times; }
  const std::vector<double>& values() const { return knots().values; }
  double time(std::size_t i) const { return times().at(i); }
  double value(std::size_t i) const { return values().at(i); }
  double max_time() const { return times().back(); }

  /// Index of the last knot with time <= t via the same linear scan the HLS
  /// kernel performs; returns size() when t precedes the first knot's use
  /// (i.e. npos semantics are avoided -- see interpolate for clamping).
  /// Exposed separately so the engine stage kernels share it.
  std::size_t find_bracket_scan(double t) const;

  /// Number of knots with time <= t (binary search; used for scan-cost
  /// modelling, not for values).
  std::size_t count_at_or_before(double t) const;

  /// Linearly interpolated value at `t`, clamped to the end values outside
  /// the knot range.
  double interpolate(double t) const;

  /// Same value as interpolate(), bracket located by binary search instead
  /// of the HLS-mirroring fixed-bound scan: O(log n) per query. The bracket
  /// index and the interpolation arithmetic are identical, so the result is
  /// bit-for-bit equal to interpolate() -- this is the host fast path the
  /// batch pricer uses, while the simulated engines keep paying the scan the
  /// hardware pays.
  double interpolate_fast(double t) const;

  /// Throws cdsflow::Error if the invariants fail (used after deserialising
  /// external data).
  void validate() const;

 private:
  /// Linear interpolation on the bracket [lo, lo+1] -- the one arithmetic
  /// both interpolate() and interpolate_fast() share, so their bit-for-bit
  /// equality is structural.
  double lerp_on_bracket(std::size_t lo, double t) const;

  struct Knots {
    std::vector<double> times;
    std::vector<double> values;
  };
  /// The shared store; a default-constructed (or moved-from) curve reads as
  /// empty.
  const Knots& knots() const { return knots_ ? *knots_ : kNoKnots; }

  inline static const Knots kNoKnots{};
  std::shared_ptr<const Knots> knots_;
};

}  // namespace cdsflow::cds
