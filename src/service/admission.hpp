/// \file admission.hpp
/// Deadline-class admission control for the multi-tenant pricing service.
///
/// The planner's probe->fit pipeline (engines/planner.hpp) prices a back-end
/// as seconds(n) = setup + n / throughput (BackendCandidate::seconds_for);
/// the runtime schedules work on the earliest-free lane of the one lane
/// schedule (runtime::LaneSchedule, runtime/shard.hpp). Admission control is
/// those two models run *forward* at request time: given the calibrated
/// affine fit of the engine actually serving the tenant pool (from the
/// planner's one probe protocol, via service::calibrate_stream_fit, unless
/// pinned) and the lane pool's booked occupancy, a request's completion time
/// is projected (LaneSchedule::project, with the request's arrival time)
/// before it is enqueued, and
///
///   projected <= arrival + deadline   -> kAdmit  (booked; on-time result)
///   projected <= arrival + defer      -> kDefer  (booked; result flagged
///                                        deferred -- priced late, honestly)
///   otherwise                         -> kShed   (kOverload reject; books
///                                        nothing, so capacity is never
///                                        consumed by work that will not
///                                        be done)
///
/// The boundary case projected == arrival + deadline is admitted: the model
/// says the deadline is met exactly, and a <= comparison keeps the golden
/// transcripts stable when fits and deadlines are chosen to land on exact
/// binary-representable values (tests/test_admission.cpp pins this).
///
/// The controller is deliberately clock-free -- the caller supplies every
/// arrival time (the service uses seconds since server start; tests use a
/// script). Decisions are pure arithmetic over the fit and the booking
/// history, so a fixed fit + a scripted burst produce a deterministic
/// admit/defer/shed transcript, replayable in CI.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engines/planner.hpp"
#include "runtime/shard.hpp"

namespace cdsflow::service {

/// A latency contract: result due within `deadline_seconds` of arrival;
/// degraded (deferred) service acceptable up to `defer_seconds`.
struct DeadlineClass {
  std::string name;
  double deadline_seconds = 0.0;
  double defer_seconds = 0.0;
};

/// The standard service classes (README documents the same table):
///   interactive  5 ms deadline /  20 ms defer ceiling
///   standard    50 ms deadline / 200 ms defer ceiling
///   batch        2 s  deadline /   8 s  defer ceiling
const std::vector<DeadlineClass>& standard_deadline_classes();

/// Looks a class up by name among the standard ones.
std::optional<DeadlineClass> find_deadline_class(const std::string& name);

enum class AdmissionDecision : std::uint8_t {
  kAdmit = 0,  ///< booked; projected to meet the deadline
  kDefer = 1,  ///< booked; projected to miss the deadline but make defer
  kShed = 2,   ///< refused (kOverload); nothing booked
};

const char* to_string(AdmissionDecision decision);

/// One admission decision, in decision order -- the transcript the golden
/// tests replay.
struct AdmissionRecord {
  std::uint32_t tenant = 0;
  std::uint32_t request = 0;
  std::size_t n_options = 0;
  double arrival_seconds = 0.0;
  /// Completion the lane schedule projected (for kShed: the completion
  /// that was refused).
  double projected_seconds = 0.0;
  /// Absolute deadline (arrival + class deadline) the projection was judged
  /// against.
  double deadline_seconds = 0.0;
  AdmissionDecision decision = AdmissionDecision::kAdmit;
};

/// Projects each request against a fixed per-lane affine fit and the booked
/// occupancy; see the file header for the decision rule. Not thread-safe --
/// the service calls it from its event-loop thread only.
class AdmissionController {
 public:
  /// `fit` is the affine cost model of one serving lane (typically from
  /// engine::fit_backend_model over probes of the tenant pool's engine);
  /// `lanes` is the pool's lane count.
  AdmissionController(engine::BackendCandidate fit, unsigned lanes);

  /// Decides (and for admit/defer books) one request of `n_options`.
  AdmissionDecision decide(std::uint32_t tenant, std::uint32_t request,
                           std::size_t n_options, double arrival_seconds,
                           const DeadlineClass& klass);

  /// Projected cost of one request under the fit (setup + n/throughput).
  double task_seconds(std::size_t n_options) const {
    return fit_.seconds_for(n_options);
  }

  const std::vector<AdmissionRecord>& transcript() const { return records_; }
  const engine::BackendCandidate& fit() const { return fit_; }

 private:
  engine::BackendCandidate fit_;
  runtime::LaneSchedule lanes_;
  std::vector<AdmissionRecord> records_;
};

}  // namespace cdsflow::service
