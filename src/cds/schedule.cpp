#include "cds/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cdsflow::cds {

namespace {

/// Tolerance for "maturity lands exactly on a payment date": avoids a
/// zero-length stub period from floating-point representation of dates like
/// 5.0 * 4 payments.
constexpr double kDateEps = 1e-9;

/// Payment point i >= 1 at spacing `step` = 1 / frequency -- the one
/// formula for a payment time and its accrual period (t_0 = 0 * step = 0).
TimePoint payment_point(std::size_t i, double step) {
  const double t = static_cast<double>(i) * step;
  return {t, t - static_cast<double>(i - 1) * step};
}

}  // namespace

std::size_t schedule_size(const CdsOption& option) {
  option.validate();
  const double periods = option.maturity_years * option.payment_frequency;
  // ceil with tolerance: maturity exactly on a payment date does not open a
  // new (empty) period.
  const auto n = static_cast<std::size_t>(std::ceil(periods - kDateEps));
  return n == 0 ? 1 : n;
}

std::vector<TimePoint> make_schedule(const CdsOption& option) {
  std::vector<TimePoint> points;
  make_schedule(option, points);
  return points;
}

std::size_t make_schedule(const CdsOption& option,
                          std::vector<TimePoint>& out) {
  const std::size_t n = schedule_size(option);
  // Grow geometrically: reserve(size + n) on every append would reallocate
  // to the exact request each time and turn arena filling quadratic.
  if (out.size() + n > out.capacity()) {
    out.reserve(std::max(out.size() + n, 2 * out.capacity()));
  }
  const double step = 1.0 / option.payment_frequency;
  for (std::size_t i = 1; i < n; ++i) out.push_back(payment_point(i, step));
  out.push_back(maturity_point(option, n));
  return n;
}

void extend_ladder(double frequency, std::size_t count,
                   std::vector<TimePoint>& ladder) {
  const double step = 1.0 / frequency;
  for (std::size_t i = ladder.size() + 1; i <= count; ++i) {
    ladder.push_back(payment_point(i, step));
  }
}

TimePoint maturity_point(const CdsOption& option, std::size_t n) {
  const double t = option.maturity_years;
  // t_{n-1} < maturity holds by schedule_size's ceil; a frequency whose
  // rounding broke it would leave no positive stub period.
  const double prev =
      static_cast<double>(n - 1) * (1.0 / option.payment_frequency);
  CDSFLOW_ASSERT(t > prev, "schedule produced a non-increasing time point");
  return {t, t - prev};
}

}  // namespace cdsflow::cds
