/// \file schedule.hpp
/// Premium payment schedules ("distinct time points", paper Fig. 1).
///
/// For each option the model first determines the set of time points that
/// "extend to the maturity date"; every subsequent component loops over
/// them. Payments fall every 1/frequency years; the final point is the
/// maturity itself, which may make the last period short (a "stub").

#pragma once

#include <cstddef>
#include <vector>

#include "cds/types.hpp"

namespace cdsflow::cds {

/// One premium payment time point.
struct TimePoint {
  /// Payment date as a year fraction.
  double t = 0.0;
  /// Accrual period ending at t (t_i - t_{i-1}, with t_0 = 0).
  double dt = 0.0;
};

/// Payment schedule for one option: time points t_1 < t_2 < ... < t_n with
/// t_n == maturity.
std::vector<TimePoint> make_schedule(const CdsOption& option);

/// Appends the same schedule to `out` (existing contents are preserved) and
/// returns the number of points appended. Lets hot loops reuse one buffer
/// across many options instead of heap-allocating per option -- the scalar
/// pricing paths use this.
std::size_t make_schedule(const CdsOption& option, std::vector<TimePoint>& out);

/// Number of time points make_schedule would produce, without materialising
/// them (engines use this to size streams and account work).
std::size_t schedule_size(const CdsOption& option);

/// Extends `ladder`, the payment points every schedule at `frequency`
/// shares, to its first `count` points: t_i = i / frequency with
/// dt_i = t_i - t_{i-1} (t_0 = 0), make_schedule's points before the last.
/// Points already present are kept; a shorter `count` appends nothing.
void extend_ladder(double frequency, std::size_t count,
                   std::vector<TimePoint>& ladder);

/// The last point of `option`'s n-point schedule (n = schedule_size):
/// (maturity, maturity - t_{n-1}). An n-point schedule is its frequency's
/// first n - 1 ladder points followed by this point.
TimePoint maturity_point(const CdsOption& option, std::size_t n);

}  // namespace cdsflow::cds
