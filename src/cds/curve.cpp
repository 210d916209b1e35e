#include "cds/curve.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cdsflow::cds {

TermStructure::TermStructure(std::vector<double> times,
                             std::vector<double> values)
    : knots_(std::make_shared<const Knots>(
          Knots{std::move(times), std::move(values)})) {
  validate();
}

void TermStructure::validate() const {
  const std::vector<double>& times_ = times();
  CDSFLOW_EXPECT(!times_.empty(), "term structure needs at least one point");
  CDSFLOW_EXPECT(times_.size() == values().size(),
                 "term structure times/values length mismatch");
  CDSFLOW_EXPECT(times_.front() >= 0.0,
                 "term structure times must be non-negative");
  for (std::size_t i = 1; i < times_.size(); ++i) {
    CDSFLOW_EXPECT(times_[i] > times_[i - 1],
                   "term structure times must be strictly increasing");
  }
}

std::size_t TermStructure::find_bracket_scan(double t) const {
  // The HLS kernel's fixed-bound loop: walk every knot, remember the last
  // one at or before t. (The FPGA cannot early-exit a pipelined loop without
  // hurting II, so the hardware always pays the full scan; the *value*
  // computed is identical to a binary search.)
  const std::vector<double>& times_ = times();
  std::size_t last_le = 0;
  bool found = false;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] <= t) {
      last_le = i;
      found = true;
    }
  }
  return found ? last_le : times_.size();
}

std::size_t TermStructure::count_at_or_before(double t) const {
  const std::vector<double>& times_ = times();
  return static_cast<std::size_t>(
      std::upper_bound(times_.begin(), times_.end(), t) - times_.begin());
}

double TermStructure::lerp_on_bracket(std::size_t lo, double t) const {
  const std::size_t hi = lo + 1;
  const std::vector<double>& times_ = times();
  const std::vector<double>& values_ = values();
  const double t0 = times_[lo];
  const double t1 = times_[hi];
  const double v0 = values_[lo];
  const double v1 = values_[hi];
  return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

double TermStructure::interpolate(double t) const {
  const std::vector<double>& times_ = times();
  const std::vector<double>& values_ = values();
  CDSFLOW_ASSERT(!times_.empty(), "interpolate on empty curve");
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  return lerp_on_bracket(find_bracket_scan(t), t);
}

double TermStructure::interpolate_fast(double t) const {
  const std::vector<double>& times_ = times();
  const std::vector<double>& values_ = values();
  CDSFLOW_ASSERT(!times_.empty(), "interpolate on empty curve");
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  // Last knot with time <= t: the same index find_bracket_scan returns for
  // any t strictly inside the knot range (count_at_or_before is never zero
  // here because t > times_.front()).
  return lerp_on_bracket(count_at_or_before(t) - 1, t);
}

}  // namespace cdsflow::cds
