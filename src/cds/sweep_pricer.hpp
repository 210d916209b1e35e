/// \file sweep_pricer.hpp
/// Scenario-major sweep pricing: one deduplicated book under N scenarios.
///
/// Every fast path so far scales the *options* axis; production credit risk
/// scales the *scenario* axis -- stress grids, historical replay,
/// Monte-Carlo hazard paths (the streaming-Greeks observation of
/// arXiv:2212.13977: all repricings differentiate the same tabulated
/// intermediates, so the bumps belong on the grids, not the options). The
/// naive loop re-runs the whole `BatchPricer` per scenario:
///
///     per scenario: curve ctor + prefix build + schedule dedup
///                   + D column + Q column + leg reduction + N_opt combines
///
/// Everything a scenario cannot move is hoisted out of the loop, per kind
/// (the routines live in batch_pricer.hpp's detail::, since the batched
/// Greeks are a client of this sweep: their hazard bumps run as one kHazard
/// set, their interest bumps as two kRate-style scenarios):
///
///   kHazard  shared: schedules, dedup, D column, segment brackets
///            per scenario: Q column only -- and because every scenario
///            shares the knot *times*, even the Q column needs no searches:
///            the segment index and dt of every tabulated point are
///            precomputed once, and `simd::sweep_survival_group` tabulates
///            `lanes(level)` scenarios per vector register (scenarios in
///            the lanes -- the scenario axis is embarrassingly data-
///            parallel, unlike the prefix chain within one scenario).
///   kRate    shared: schedules, dedup, Q column; per scenario: D column.
///   kJoint   shared: schedules, dedup, segment precompute; per scenario:
///            both columns.
///
/// A scenario's columns are tabulated where the base grids are: at each
/// frequency's payment-ladder points and at one stub point per grid
/// (batch_pricer.hpp, step 2), about one point per grid on a
/// continuous-maturity book. The kRate and kJoint columns search knots
/// through the base workspace's tables (BatchPricer::Workspace::search):
/// built once with the base grids, they serve every scenario because
/// scenarios keep the knot times.
///
/// Per scenario the leg sums are one running-sum scan per ladder plus one
/// stub step per grid, in the scalar reference order (detail::scan_leg_sums
/// / stub_grid_sums, or simd::sweep_ladder_sums_group /
/// sweep_stub_sums_group lane-wise), and the per-option combine collapses
/// to O(1) per *grid* for the min/max aggregates: the combine expression
///     spread = kBasisPointsPerUnit * ((1 - recovery) * payoff_g) / annuity_g
/// is monotone (weakly decreasing) in the recovery rate under IEEE
/// round-to-nearest -- payoff_g >= 0 and annuity_g > 0, and each step
/// (exact 1-r subtraction, multiply and divide by non-negative constants)
/// preserves <= -- so the grid's extremal spreads are the exact combine
/// values of its extremal-recovery options. A 4k-option book costs ~10
/// divides per scenario instead of 4096, and the aggregate is *bit-equal*
/// to scanning the full per-option results (min/max are value-based and
/// order-independent).
///
/// Bit-identity contract (tested in tests/test_sweep_pricer.cpp): at every
/// kernel level, per-option results delivered through the sink -- and hence
/// the aggregates -- are bit-identical to the naive per-scenario
/// `BatchPricer` loop at the same level, and invariant under scenario
/// grouping, shard size and worker count. Every per-scenario path evaluates
/// the reference expressions on the shared grids: the hazard group kernel
/// reproduces make_hazard_prefix + integrated_hazard_prefix per lane, the
/// rate/joint paths reuse survival_column / discount_column, and the
/// reductions/combines are the batch kernel's own.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/hazard.hpp"
#include "cds/types.hpp"
#include "cds/vector_kernel.hpp"

namespace cdsflow::cds {

/// Which curve a scenario set moves; selects the shared column(s).
enum class ScenarioKind {
  kHazard,  ///< hazard values move, D column shared across all scenarios
  kRate,    ///< interest values move, Q column shared across all scenarios
  kJoint,   ///< both move, schedules/brackets/combine still amortised
};

const char* to_string(ScenarioKind kind);

/// Scenario-major view over N scenarios' curve values. Scenarios move knot
/// *values* only: every scenario shares the base curves' knot times (what
/// makes the search-free hazard fast path valid). Row s of each matrix is
/// scenario s's full knot-value vector.
struct ScenarioMatrix {
  ScenarioKind kind = ScenarioKind::kHazard;
  std::size_t count = 0;
  /// count x hazard_knots row-major values; unused (empty) for kRate.
  std::span<const double> hazard_values;
  /// count x interest_knots row-major values; unused (empty) for kHazard.
  std::span<const double> rate_values;
};

/// Per-scenario aggregate over the book's spreads. Min/max are value-based
/// (order-independent), so the sweep's O(grids) evaluation is bit-equal to
/// scanning the naive loop's full per-option results.
struct ScenarioAggregate {
  double min_spread_bps = 0.0;
  double max_spread_bps = 0.0;
};

/// What a sweep cost and how much tabulation the sharing removed.
struct SweepStats {
  std::size_t scenarios = 0;
  std::size_t options = 0;
  std::size_t unique_schedules = 0;
  std::size_t grid_points = 0;
  /// Per-grid curve columns re-tabulated (scenario-moved columns).
  std::size_t retabulated_columns = 0;
  /// Per-grid curve columns served from the shared base grids.
  std::size_t shared_columns = 0;

  /// Fraction of required columns served without re-tabulation: 0.5 for
  /// single-curve scenario kinds (one of D/Q shared), 0 for kJoint.
  double shared_column_rate() const {
    const std::size_t total = retabulated_columns + shared_columns;
    return total == 0 ? 0.0
                      : static_cast<double>(shared_columns) /
                            static_cast<double>(total);
  }

  /// Accumulates a shard's stats (scenario-extensive fields add, book
  /// geometry is identical across shards and carried through).
  void merge(const SweepStats& other);
};

/// Prices one fixed book under many scenarios. Construction runs the batch
/// kernel's passes 1-2 once (schedule dedup + base-grid tabulation) and
/// precomputes the scenario-invariant hazard segment brackets; sweep() then
/// re-tabulates only what each scenario moves.
///
/// The pricer carries internal scratch, so sweep() is NOT const and an
/// instance must not be shared across threads -- the runtime gives each
/// worker lane its own replica, exactly like the batch engines (the
/// replicas produce bit-identical results, so the merge stays
/// deterministic).
class SweepPricer {
 public:
  /// Called once per scenario with its full per-option results (batch
  /// order, ids preserved). The span aliases internal scratch: valid only
  /// during the call. Empty sink skips per-option expansion entirely --
  /// the O(grids)-per-scenario fast path.
  using ResultSink =
      std::function<void(std::size_t scenario, std::span<const SpreadResult>)>;

  /// Copies the curves and the book; builds the base grids at `level`
  /// (clamped to the host, like BatchPricer). Throws cdsflow::Error on an
  /// empty book, invalid options or an unpriceable base grid.
  SweepPricer(TermStructure interest, TermStructure hazard,
              std::span<const CdsOption> options,
              simd::Level level = simd::Level::kScalar);

  const TermStructure& interest() const { return base_.interest(); }
  const TermStructure& hazard() const { return base_.hazard(); }
  simd::Level kernel_level() const { return base_.kernel_level(); }
  std::size_t option_count() const { return options_.size(); }
  /// Dedup accounting of the one-time base-grid build.
  const BatchStats& book_stats() const { return book_stats_; }

  /// Prices scenarios [begin, end) of `scenarios` into
  /// `aggregates[s - begin]`. `aggregates.size()` must equal end - begin;
  /// the half-open range is the runtime's shard axis. Throws cdsflow::Error
  /// on shape mismatches or an unpriceable scenario grid (non-positive
  /// risky annuity -- the same diagnostic, and the same scenarios, as the
  /// naive loop).
  SweepStats sweep(const ScenarioMatrix& scenarios, std::size_t begin,
                   std::size_t end, std::span<ScenarioAggregate> aggregates,
                   const ResultSink& sink = {});

  /// Convenience: the whole scenario set, owning the result vector.
  std::vector<ScenarioAggregate> sweep(const ScenarioMatrix& scenarios);

  /// The comparator's aggregate: a plain in-order min/max scan over full
  /// per-option results (what the naive loop computes per scenario).
  static ScenarioAggregate aggregate_spreads(std::span<const SpreadResult> rs);

 private:
  /// Aggregate + optional sink emission for scenario `s`, whose per-grid
  /// sums are `annuity` / `payoff`.
  void emit_scenario(std::size_t s, std::size_t base_index,
                     std::span<const double> annuity,
                     std::span<const double> payoff,
                     std::span<ScenarioAggregate> aggregates,
                     const ResultSink& sink);

  /// Scenario `s`'s interest curve: the base knot times, its rate row.
  TermStructure rate_curve(const ScenarioMatrix& m, std::size_t s) const;

  void sweep_hazard(const ScenarioMatrix& m, std::size_t begin,
                    std::size_t end, std::span<ScenarioAggregate> aggregates,
                    const ResultSink& sink);
  void sweep_rate(const ScenarioMatrix& m, std::size_t begin, std::size_t end,
                  std::span<ScenarioAggregate> aggregates,
                  const ResultSink& sink);
  void sweep_joint(const ScenarioMatrix& m, std::size_t begin, std::size_t end,
                   std::span<ScenarioAggregate> aggregates,
                   const ResultSink& sink);

  BatchPricer base_;
  std::vector<CdsOption> options_;
  BatchPricer::Workspace ws_;  ///< base grids and search tables, built once
  BatchStats book_stats_;
  std::size_t n_grids_ = 0;
  std::size_t n_knots_ = 0;  ///< hazard knots
  /// Every ladder and stub as one scenario block: brackets built once with
  /// the base grids, group and column scratch reused across sweeps.
  detail::ScenarioBlock block_;

  // Per-grid extremal recovery rates (first pass over the book).
  std::vector<double> rec_min_;
  std::vector<double> rec_max_;

  // Reused per-sweep scratch.
  std::vector<double> q_col_;  ///< one kJoint scenario's survival column
  std::vector<SpreadResult> results_;
  HazardPrefix scen_prefix_;  ///< kJoint per-scenario prefix (reused)
};

}  // namespace cdsflow::cds
