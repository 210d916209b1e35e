/// \file selftest.cpp
/// Self-tests of the benchmark's own machinery: span self time, the
/// percentile rule and seed determinism of every generated input. The check
/// that emitted metric names are valid and declared in BENCHMARK.json lives
/// in run.py (`python3 perfbench/run.py --self-test` runs both).

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_self_time() {
  // No children: the whole span is self time.
  check(near(self_time({0, 10}, {}), 10), "self time without children");
  // Overlapping children count once: [1,4] u [3,6] covers 5.
  check(near(self_time({0, 10}, {{1, 4}, {3, 6}}), 5), "overlapping children");
  // A child nested inside another adds nothing.
  check(near(self_time({0, 10}, {{1, 8}, {2, 3}}), 3), "nested children");
  // Children are clipped to the span.
  check(near(self_time({0, 10}, {{-5, 2}, {9, 20}}), 7), "clipped children");
  // Full cover leaves no self time, and self time is never negative.
  check(near(self_time({0, 10}, {{0, 10}, {0, 12}}), 0), "covered span");

  // Through the span log: a parent with two lanes of children, one of
  // which has its own child (the grandchild does not reduce the root).
  SpanLog log;
  const auto root = log.add("root", 1, -1, {0.0, 10.0});
  log.add_lane_children("kid", root, {3.0, 2.0, 4.0}, {0, 1, 1});
  const auto kid = log.add("kid2", 1, root, {5.0, 8.0});
  log.add("grandkid", 1, kid, {6.0, 7.0});
  // Lane 0: [0,3]; lane 1: [0,2], [2,6]; plus [5,8] -> union [0,8].
  check(near(log.self_seconds(root), 2.0), "span log self time of the root");
  check(near(log.self_seconds(kid), 2.0), "span log self time of a child");
  check(log.self_seconds_of("kid").size() == 3, "spans found by name");
}

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // p99 of 1..1000 is the 990th value, with 10 samples beyond it.
  const auto p99 = percentile(v, 99.0);
  check(p99.has_value() && *p99 == 990.0, "p99 at 1000 samples");
  v.pop_back();
  check(!percentile(v, 99.0).has_value(), "p99 refused at 999 samples");
  check(percentile(v, 50.0).has_value() && *percentile(v, 50.0) == 500.0,
        "p50 of 1..999");

  std::vector<double> small;
  for (int i = 1; i <= 30; ++i) small.push_back(i);
  const auto tail = highest_supported(small);
  // 30 samples: the 20th value has exactly 10 beyond it.
  check(tail.has_value() && tail->value == 20.0 &&
            near(tail->percentile, 100.0 * 20.0 / 30.0),
        "highest supported percentile of 30 samples");
  check(!percentile(small, 90.0).has_value(), "p90 refused at 30 samples");
  check(!highest_supported(std::vector<double>(10, 1.0)).has_value(),
        "no tail at 10 samples");

  // Failed ops are infinitely late and push the percentile to infinity.
  std::vector<double> failing(1000, 1.0);
  for (int i = 0; i < 11; ++i) failing[i] = std::numeric_limits<double>::infinity();
  check(std::isinf(*percentile(failing, 99.0)), "failures make p99 infinite");
  check(median({3.0, 1.0, 2.0}) == 2.0, "plain median");
}

std::uint64_t book_digest(const std::vector<cds::CdsOption>& book) {
  std::uint64_t h = digest(nullptr, 0);
  for (const auto& o : book) {  // field by field: the struct has padding
    h = digest(&o.id, sizeof(o.id), h);
    h = digest(&o.maturity_years, sizeof(double), h);
    h = digest(&o.payment_frequency, sizeof(double), h);
    h = digest(&o.recovery_rate, sizeof(double), h);
  }
  return h;
}

std::uint64_t plan_digest(const std::vector<std::vector<QuoteStep>>& plan) {
  std::uint64_t h = digest(nullptr, 0);
  for (const auto& tenant : plan) {
    for (const auto& step : tenant) {
      h = digest(&step.due_s, sizeof(step.due_s), h);
      h = digest(step.frame.data(), step.frame.size(), h);
    }
  }
  return h;
}

void test_seed_determinism() {
  const Market a = market(7), b = market(7), c = market(8);
  check(a.hazard.values() == b.hazard.values() &&
            a.interest.values() == b.interest.values(),
        "same seed, same curves");
  check(a.hazard.values() != c.hazard.values(), "other seed, other curves");

  for (const Stream stream :
       {Stream::kIntradayBooks, Stream::kEodBooks, Stream::kClusterBooks}) {
    const auto x = book_digest(continuous_book(7, stream, 3, 256));
    check(x == book_digest(continuous_book(7, stream, 3, 256)),
          "same seed, same book");
    check(x != book_digest(continuous_book(8, stream, 3, 256)),
          "other seed, other book");
    check(x != book_digest(continuous_book(7, stream, 4, 256)),
          "other op, other book");
  }
  check(book_digest(continuous_book(7, Stream::kIntradayBooks, 0, 256)) !=
            book_digest(continuous_book(7, Stream::kClusterBooks, 0, 256)),
        "streams are independent");

  const auto s1 = eod_scenarios(a.hazard, 7, 2, 64);
  const auto s2 = eod_scenarios(a.hazard, 7, 2, 64);
  const auto s3 = eod_scenarios(a.hazard, 8, 2, 64);
  check(s1.hazard_values == s2.hazard_values, "same seed, same scenarios");
  check(s1.hazard_values != s3.hazard_values, "other seed, other scenarios");

  const auto p1 = quote_plan(7, a.hazard, 0.5, 1000.0, 2, 0);
  const auto p2 = quote_plan(7, a.hazard, 0.5, 1000.0, 2, 0);
  const auto p3 = quote_plan(8, a.hazard, 0.5, 1000.0, 2, 0);
  const auto p4 = quote_plan(7, a.hazard, 0.5, 1000.0, 2, 1);
  check(plan_digest(p1) == plan_digest(p2), "same seed, same schedule and frames");
  check(plan_digest(p1) != plan_digest(p3), "other seed, other schedule and frames");
  check(plan_digest(p1) != plan_digest(p4), "other session, other schedule and frames");
  check(p1.size() == 2 && p1[0].size() > 400 && p1[1].size() > 400,
        "quote plan has both tenants at about 1000 requests/s");
  std::size_t quotes = 0;
  for (const auto& step : p1[0]) quotes += step.quote ? 1 : 0;
  check(quotes == (p1[0].size() - quotes - 1) / kQuoteRequestsPerUpdate,
        "one hazard-quote update per 64 requests");
  for (const auto& tenant : p1) {
    double last = 0.0;
    for (const auto& step : tenant) {
      check(step.due_s >= last && step.due_s < 0.5, "due times ordered, in window");
      last = step.due_s;
      if (!step.quote) {
        check(step.options.size() == kQuoteOptionsPerRequest, "32 options a request");
      }
    }
  }
}

}  // namespace

int main() {
  test_self_time();
  test_percentile_rule();
  test_seed_determinism();
  if (failures == 0) std::cout << "cdsbench self-test: all checks passed\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
