/// \file test_admission.cpp
/// Golden tests for deadline-class admission control: a fixed affine fit
/// plus a scripted overload burst must reproduce a deterministic
/// admit/defer/shed transcript, and the boundary case projected-completion
/// == deadline is pinned admitted (with an exact-FP construction, not a
/// tolerance). The lane schedule the controller projects on is tested with
/// its home, runtime::LaneSchedule, in tests/test_runtime.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "engines/planner.hpp"
#include "service/admission.hpp"

namespace cdsflow {
namespace {

using service::AdmissionController;
using service::AdmissionDecision;
using service::DeadlineClass;

engine::BackendCandidate fit_of(double setup_seconds,
                                double options_per_second) {
  engine::BackendCandidate fit;
  fit.engine_name = "cpu-batch";
  fit.watts = 1.0;
  fit.setup_seconds = setup_seconds;
  fit.options_per_second = options_per_second;
  return fit;
}

// --- exact-FP boundary pin --------------------------------------------------

TEST(Admission, ProjectedCompletionExactlyOnDeadlineIsAdmitted) {
  // Probes chosen so the affine fit recovers setup = per_option = 2^-10
  // exactly: seconds(1024) = 1 + 2^-10, seconds(2048) = 2 + 2^-10 (all
  // binary-representable; slope (s2-s1)/1024 = 2^-10 and intercept
  // s1 - 1024 * 2^-10 = 2^-10, every step exact in IEEE-754).
  const double tick = 1.0 / 1024.0;
  const auto fit = engine::fit_backend_model(
      "cpu-batch", 1.0, {{1024, 1.0 + tick}, {2048, 2.0 + tick}});
  ASSERT_EQ(fit.setup_seconds, tick);
  ASSERT_EQ(1.0 / fit.options_per_second, tick);

  // task(63) = 2^-10 + 63 * 2^-10 = 64/1024 = 2^-4 exactly; with an idle
  // lane and arrival 0 the projected completion is exactly the deadline.
  const DeadlineClass klass{"pinned", 1.0 / 16.0, 1.0 / 4.0};
  AdmissionController admission(fit, 1);
  ASSERT_EQ(admission.task_seconds(63), klass.deadline_seconds);

  EXPECT_EQ(admission.decide(1, 1, 63, 0.0, klass), AdmissionDecision::kAdmit)
      << "projected == deadline must admit (<=, not <)";
  const auto& record = admission.transcript().back();
  EXPECT_EQ(record.projected_seconds, record.deadline_seconds);

  // One ulp past the boundary defers: a 64th option adds exactly 2^-10.
  EXPECT_EQ(admission.decide(1, 2, 64, 1.0, klass), AdmissionDecision::kDefer);
}

// --- scripted overload burst ------------------------------------------------

TEST(Admission, ScriptedBurstProducesGoldenTranscript) {
  // fit: task(n) = 0.001 + n/1000; one lane; standard-ish class.
  AdmissionController admission(fit_of(0.001, 1000.0), 1);
  const DeadlineClass klass{"test", 0.05, 0.2};

  struct Step {
    std::uint32_t request;
    std::size_t n_options;
    double arrival;
    AdmissionDecision expected;
  };
  // 40-option requests cost 0.041 s. Burst at t=0 on an idle lane:
  //   r1 projected 0.041 <= 0.05          -> admit
  //   r2 projected 0.082 <= 0.2           -> defer
  //   r3 projected 0.123                  -> defer
  //   r4 projected 0.164                  -> defer
  //   r5 projected 0.205 > 0.2            -> shed (books nothing)
  //   r6 at t=0.164 projected 0.205 <= 0.214 -> admit (shed freed nothing,
  //      but the lane is free exactly when r6 arrives)
  const std::vector<Step> script = {
      {1, 40, 0.0, AdmissionDecision::kAdmit},
      {2, 40, 0.0, AdmissionDecision::kDefer},
      {3, 40, 0.0, AdmissionDecision::kDefer},
      {4, 40, 0.0, AdmissionDecision::kDefer},
      {5, 40, 0.0, AdmissionDecision::kShed},
      {6, 40, 0.164, AdmissionDecision::kAdmit},
  };
  for (const auto& step : script) {
    EXPECT_EQ(admission.decide(9, step.request, step.n_options, step.arrival,
                               klass),
              step.expected)
        << "request " << step.request;
  }

  // The transcript is the decision log, in order, with projections.
  const auto& transcript = admission.transcript();
  ASSERT_EQ(transcript.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(transcript[i].request, script[i].request);
    EXPECT_EQ(transcript[i].decision, script[i].expected);
    EXPECT_EQ(transcript[i].tenant, 9u);
  }
  EXPECT_NEAR(transcript[0].projected_seconds, 0.041, 1e-12);
  EXPECT_NEAR(transcript[4].projected_seconds, 0.205, 1e-12);
  // r5 shed books nothing: r6's projection starts from r4's completion.
  EXPECT_NEAR(transcript[5].projected_seconds, 0.205, 1e-12);

  // Replaying the same script on a fresh controller reproduces the
  // transcript bit-for-bit (clock-free determinism).
  AdmissionController replay(fit_of(0.001, 1000.0), 1);
  for (const auto& step : script) {
    replay.decide(9, step.request, step.n_options, step.arrival, klass);
  }
  ASSERT_EQ(replay.transcript().size(), transcript.size());
  for (std::size_t i = 0; i < transcript.size(); ++i) {
    EXPECT_EQ(replay.transcript()[i].decision, transcript[i].decision);
    EXPECT_EQ(replay.transcript()[i].projected_seconds,
              transcript[i].projected_seconds);
  }
}

TEST(Admission, MultiLanePoolAbsorbsTheBurstTheSingleLaneSheds) {
  // Same burst as the golden transcript but on 4 lanes: every request
  // starts immediately on its own lane, so all six admit.
  AdmissionController admission(fit_of(0.001, 1000.0), 4);
  const DeadlineClass klass{"test", 0.05, 0.2};
  for (std::uint32_t r = 1; r <= 4; ++r) {
    EXPECT_EQ(admission.decide(9, r, 40, 0.0, klass),
              AdmissionDecision::kAdmit)
        << "request " << r;
  }
  // Lane 0 is the earliest-free tie-break target again at r5: it queues.
  EXPECT_EQ(admission.decide(9, 5, 40, 0.0, klass), AdmissionDecision::kDefer);
}

TEST(Admission, StandardDeadlineClassesAreWellFormedAndFindable) {
  const auto& classes = service::standard_deadline_classes();
  ASSERT_EQ(classes.size(), 3u);
  for (const auto& klass : classes) {
    EXPECT_GT(klass.deadline_seconds, 0.0);
    EXPECT_GE(klass.defer_seconds, klass.deadline_seconds);
    const auto found = service::find_deadline_class(klass.name);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->deadline_seconds, klass.deadline_seconds);
  }
  EXPECT_FALSE(service::find_deadline_class("no-such-class").has_value());
  EXPECT_EQ(classes[0].name, "interactive");
  EXPECT_EQ(classes[1].name, "standard");
  EXPECT_EQ(classes[2].name, "batch");
}

TEST(Admission, RejectsDegenerateInputs) {
  AdmissionController admission(fit_of(0.0, 1000.0), 1);
  const DeadlineClass klass{"test", 0.05, 0.2};
  EXPECT_THROW(admission.decide(1, 1, 0, 0.0, klass), Error);
  EXPECT_THROW(admission.decide(1, 1, 10, 0.0, {"bad", 0.0, 0.0}), Error);
  EXPECT_THROW(admission.decide(1, 1, 10, 0.0, {"bad", 0.2, 0.05}), Error);
  EXPECT_THROW(AdmissionController(fit_of(0.0, 0.0), 1), Error);
}

}  // namespace
}  // namespace cdsflow
