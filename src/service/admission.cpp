#include "service/admission.hpp"

#include "common/error.hpp"

namespace cdsflow::service {

const std::vector<DeadlineClass>& standard_deadline_classes() {
  static const std::vector<DeadlineClass> kClasses = {
      {"interactive", 0.005, 0.020},
      {"standard", 0.050, 0.200},
      {"batch", 2.0, 8.0},
  };
  return kClasses;
}

std::optional<DeadlineClass> find_deadline_class(const std::string& name) {
  for (const auto& klass : standard_deadline_classes()) {
    if (klass.name == name) return klass;
  }
  return std::nullopt;
}

const char* to_string(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kDefer:
      return "defer";
    case AdmissionDecision::kShed:
      return "shed";
  }
  return "unknown";
}

AdmissionController::AdmissionController(engine::BackendCandidate fit,
                                         unsigned lanes)
    : fit_(std::move(fit)), lanes_(lanes) {
  CDSFLOW_EXPECT(fit_.options_per_second > 0.0,
                 "admission fit needs a positive throughput");
  CDSFLOW_EXPECT(fit_.setup_seconds >= 0.0,
                 "admission fit needs a non-negative setup");
}

AdmissionDecision AdmissionController::decide(std::uint32_t tenant,
                                              std::uint32_t request,
                                              std::size_t n_options,
                                              double arrival_seconds,
                                              const DeadlineClass& klass) {
  CDSFLOW_EXPECT(n_options > 0, "admission decision needs a non-empty request");
  CDSFLOW_EXPECT(klass.deadline_seconds > 0.0 &&
                     klass.defer_seconds >= klass.deadline_seconds,
                 "deadline class must have 0 < deadline <= defer");

  const double task = fit_.seconds_for(n_options);
  const double projected = lanes_.project(arrival_seconds, task);

  AdmissionRecord record;
  record.tenant = tenant;
  record.request = request;
  record.n_options = n_options;
  record.arrival_seconds = arrival_seconds;
  record.projected_seconds = projected;
  record.deadline_seconds = arrival_seconds + klass.deadline_seconds;

  // <= on both boundaries: a projection landing exactly on the deadline is
  // a met deadline under the model (pinned by the golden tests).
  if (projected <= arrival_seconds + klass.deadline_seconds) {
    record.decision = AdmissionDecision::kAdmit;
  } else if (projected <= arrival_seconds + klass.defer_seconds) {
    record.decision = AdmissionDecision::kDefer;
  } else {
    record.decision = AdmissionDecision::kShed;
  }
  if (record.decision != AdmissionDecision::kShed) {
    lanes_.book(arrival_seconds, task);  // shed work consumes no capacity
  }
  records_.push_back(record);
  return record.decision;
}

}  // namespace cdsflow::service
