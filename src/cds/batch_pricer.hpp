/// \file batch_pricer.hpp
/// Batched structure-of-arrays fast-path pricing kernel for the CPU.
///
/// The host-side scalar path re-derives everything per option: an O(knots)
/// hazard scan plus an exp per schedule point, an O(knots) interpolation
/// scan plus an exp per schedule point, and a heap-allocated schedule per
/// option. That is exactly the redundant recomputation the paper strips out
/// of the FPGA kernel by restructuring it as dataflow (Sec. III); this
/// kernel performs the same restructuring for the CPU path the sharded
/// runtime's workers execute:
///
///   1. *Schedule dedup.* Options sharing (maturity, frequency) share one
///      payment grid; a standard-tenor book of 16k options collapses to a
///      handful of grids.
///   2. *One payment ladder per frequency.* Schedules run forward from zero
///      (schedule.hpp: t_i = i / f, the last point is the maturity), so
///      every grid at frequency f is the same ladder {1/f, 2/f, ...} cut
///      after n - 1 points, plus one stub point at its maturity. Once per
///      (interest, hazard) pair the kernel tabulates the discount factor
///      D(t) and survival Q(t) at each ladder point and each stub only --
///      hazard integration via O(log) prefix sums
///      (integrated_hazard_prefix), interpolation via O(log) binary search
///      (interpolate_fast) -- and keeps each ladder's running leg sums
///      after every point. A grid's three leg sums are then the ladder's
///      running sums after n - 1 points continued by the stub's terms: the
///      reference walk's own operations in its own order, so no value
///      moves. A continuous-maturity book tabulates about one point per
///      grid instead of ~20.
///   3. *Per-option combine.* Pricing an option is then a branch-free
///      multiply-divide against its grid's reduced sums: no exp, no curve
///      scan, no allocation in the inner loop.
///
/// Numerics: every intermediate is computed with the same association order
/// as the scalar reference (`price_breakdown`), so spreads agree with
/// ReferencePricer bit-for-bit under default compilation (and to well below
/// 1e-9 relative under any IEEE-conforming contraction). The HLS-mirroring
/// fixed-bound scans stay untouched for the simulated engines -- they model
/// what the hardware pays; this kernel is what the host should pay.
///
/// *Risk pass* (price_with_sensitivities): the post-pricing Greeks workflow
/// (cds/risk.hpp) reprices every option under six bumped scenarios plus two
/// per ladder bucket -- per option. The streaming-Greeks observation
/// (arXiv:2212.13977) is that all of those repricings differentiate the
/// same tabulated discount/survival intermediates, so the bumps belong on
/// the *grids*, not the options: they are a scenario sweep over the base
/// grids, run by the sweep's own routines (detail:: below):
///
///   - CS01 / ladder: the hazard bumps keep the knot times, so they are one
///     kHazard scenario set (cds/sweep_pricer.hpp) -- `lanes(level)` bumps
///     per register, Q at the ladder points and stubs, leg sums against the
///     base discount column.
///   - IR01: each interest bump is one discount column at the ladder points
///     and stubs, reduced against the base survival column.
///   - Rec01 / JTD: the spread is exactly linear in the recovery rate, so
///     no bumped grid is needed at all -- the same central-difference
///     expression the scalar reference evaluates reduces to a reweighting
///     of the base grid's payoff/annuity sums.
///
/// Scenarios run over blocks of at most 4,096 grids, each block holding
/// every ladder and its grids' stubs, so their scratch is one block at any
/// book size, and every sensitivity is an O(1) per-option combine of
/// (scenario, grid) sums. Each scenario's sums are bit-identical to a
/// BatchPricer pass on its bumped curve at the same level, so at kScalar
/// all sensitivities match compute_sensitivities / cs01_ladder bit-for-bit
/// under default compilation; the tests and benches hold the documented
/// tolerance of 1e-12 relative (the acceptance bound is 1e-9).
///
/// *Lanes* (cds/vector_kernel.hpp): pass 2 tabulates the discount and
/// survival columns with cds::simd -- one call per ladder extension and one
/// over the batch's new stubs, so the lane tails are per call, not per
/// grid -- hazard bumps fill the lanes with scenarios, and pass 3 combines
/// spreads `lanes(level)` options at a time.
/// This is the kernel's only path: the SIMD level is a parameter of the
/// cds::simd calls, and nothing else here looks at it. At kScalar (one
/// un-replicated lane, the default) cds::simd runs the scalar reference
/// arithmetic, so spreads, Greeks and columns are bit-identical to
/// ReferencePricer, compute_sensitivities / cs01_ladder and the reference
/// curve math (tests/test_vector_kernel.cpp,
/// ScalarLevelIsBitIdenticalToReference). The leg-sum *reductions* keep the
/// reference association order at every level (per ladder, or per lane), so
/// above kScalar the only divergence is the per-element column math,
/// bounded by VectorKernelContract (cds/precision.hpp) and documented in
/// docs/VECTOR_LANES.md.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cds/curve.hpp"
#include "cds/hazard.hpp"
#include "cds/risk.hpp"
#include "cds/schedule.hpp"
#include "cds/types.hpp"
#include "cds/vector_kernel.hpp"

namespace cdsflow::cds {

namespace detail {

/// Dedup key: the exact bit patterns of (maturity, frequency). Near-equal
/// doubles hash to distinct grids, which costs a redundant grid but never
/// correctness.
struct ScheduleKey {
  std::uint64_t maturity_bits = 0;
  std::uint64_t frequency_bits = 0;
  friend bool operator==(const ScheduleKey&, const ScheduleKey&) = default;
};

struct ScheduleKeyHash {
  std::size_t operator()(const ScheduleKey& key) const noexcept {
    // splitmix64-style finaliser over the combined words.
    std::uint64_t x =
        key.maturity_bits ^ (key.frequency_bits * 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// Leg sums of one tabulated grid.
struct GridSums {
  double annuity = 0.0;  ///< premium + accrual leg sum
  double payoff = 0.0;   ///< unscaled payoff sum
};

/// The three running leg sums of one schedule walk.
struct LegSums {
  double premium = 0.0;
  double accrual = 0.0;
  double payoff = 0.0;
};

/// Hoisted from the per-option combine: the annuity is recovery-free, so
/// one check per grid covers every option on it (same diagnostic as
/// combine_spread_bps).
GridSums checked_grid_sums(const LegSums& sums);

/// Continues the running sums over points [0, from) of one ladder through
/// points [from, n), writing sums[i] after each point, in the reference
/// pricer's accumulation order (price_breakdown). The column passes produce
/// values; this walk is what keeps the sums bit-consistent with the
/// reference whenever the column values themselves agree. Shared by
/// BatchPricer::build_grids, the stream pricer's quote updates and the rate
/// scenarios, so every engine folds columns identically.
void scan_leg_sums(std::span<const TimePoint> points,
                   std::span<const double> discount,
                   std::span<const double> survival, std::size_t from,
                   std::span<LegSums> sums);

/// A grid's checked sums: its ladder's running sums after `prefix` points
/// (`sums` / `survival` are the ladder's; prefix 0 is a one-point
/// schedule, from zero sums and Q(0) = 1) continued by the stub's terms --
/// the last step of the reference walk.
GridSums stub_grid_sums(std::span<const LegSums> sums,
                        std::span<const double> survival, std::size_t prefix,
                        const TimePoint& stub, double stub_discount,
                        double stub_survival);

/// The points a scenario pass tabulates for grids [first_grid, last_grid)
/// of one workspace, and the scratch the scenario routines below use on
/// them (the sweep keeps one block over all its grids, the risk pass one
/// per run of grids). Block points are every ladder's points, ladder by
/// ladder, then the grids' stubs in grid order; per-point arrays follow
/// that order. The brackets are scenario-invariant, since scenarios move
/// knot values only; their subtractions are the reference expressions'
/// own (tau_j - tau_{j-1}, t - seg_begin), done once.
struct ScenarioBlock {
  std::size_t first_grid = 0;
  std::size_t last_grid = 0;
  std::vector<TimePoint> points;
  std::vector<double> accrual_dt;  ///< points[i].dt, contiguous
  std::vector<double> discount;    ///< base D at the block points
  std::vector<double> survival;    ///< base Q at the block points
  /// Each ladder's first block point; the last entry is the first stub.
  std::vector<std::size_t> ladder_begin;
  /// Per grid, the block row of its last ladder point before the stub, or
  /// -1 for a one-point schedule.
  std::vector<std::int64_t> prefix_row;
  // Hazard brackets (see simd::sweep_survival_group).
  std::vector<double> knot_dt;
  std::vector<double> point_dt;
  std::vector<std::int64_t> base_row;
  std::vector<std::int64_t> rate_row;
  /// Knots at or before the last point: later ones feed no row the group
  /// reads, so the transpose and lambda chain stop there, bits unchanged.
  std::size_t active_knots = 0;
  // One lane-transposed scenario group, W lanes per knot, point or grid
  // (sums_T: 3 x W per ladder point).
  std::vector<double> rates_T, lambda_T, q_T, sums_T, annuity_T, payoff_T;
  // One scenario's checked per-grid sums, discount column and ladder sums.
  std::vector<double> annuity, payoff, scenario_discount;
  std::vector<LegSums> ladder_sums;

  std::size_t stub_begin() const { return ladder_begin.back(); }
};

}  // namespace detail

/// What one batch cost and how much work dedup removed.
struct BatchStats {
  std::size_t options = 0;
  /// Distinct (maturity, frequency) grids the batch collapsed to.
  std::size_t unique_schedules = 0;
  /// Points tabulated: every ladder's points plus one stub per grid.
  std::size_t grid_points = 0;
  /// Schedule points the scalar path would have walked (sum over options);
  /// grid_points / scalar_points is the dedup factor.
  std::size_t scalar_points = 0;
};

/// Risk-pass configuration (price_with_sensitivities).
struct BatchRiskConfig {
  /// Central-difference bump; same default and meaning as
  /// compute_sensitivities.
  double bump = 1e-4;
  /// CS01 ladder bucket edges, same contract as cs01_ladder (increasing, at
  /// least two when present). Empty disables the ladder.
  std::vector<double> ladder_edges;
};

/// What one risk batch cost on top of the base pricing pass.
struct BatchRiskStats {
  /// Dedup/grid accounting of the base pricing tabulation.
  BatchStats base;
  /// Points tabulated across all bumped scenarios: (4 + 2 * ladder
  /// buckets) columns over the base pass's ladders and stubs.
  std::size_t bumped_grid_points = 0;
  /// Full repricings the per-option scalar loop performs for the same
  /// output (7 + 2 * ladder buckets per option) -- the work the grid-level
  /// bumps remove.
  std::size_t scalar_repricings = 0;
};

class BatchPricer {
 public:
  /// The schedule points of one payment frequency, t_i = i / frequency
  /// (schedule.hpp's extend_ladder), as far as the workspace's longest grid
  /// at that frequency needs them, with their tabulated columns and the
  /// running leg sums after each point. A longer grid extends it in place.
  struct Ladder {
    double frequency = 0.0;  ///< 0 marks a ladder clear() emptied
    std::vector<TimePoint> points;
    std::vector<double> discount;        ///< D(t_i)
    std::vector<double> survival;        ///< Q(t_i)
    std::vector<detail::LegSums> sums;   ///< over points [0, i]
  };

  /// The grid store: one ladder per frequency, one stub point per grid and
  /// the dedup map. price() clears it per call; the streaming pricer keeps
  /// one alive across calls as its grid cache (build_grids only appends).
  /// All memory is retained, so a warmed workspace makes a batch
  /// allocation-free. One workspace per concurrent caller; any pricer may
  /// use it, since the knot-search tables are checked against the pricer's
  /// knot times before reuse.
  struct Workspace {
    // Per option, in batch order.
    std::vector<std::uint32_t> grid_of;
    // Per unique grid. A grid with an n-point schedule is ladder
    // grid_ladder's first grid_prefix = n - 1 points, then its stub: the
    // point (maturity, maturity - t_{n-1}) and its D and Q.
    std::vector<double> grid_maturity;
    std::vector<double> grid_frequency;
    std::vector<double> grid_annuity;  ///< premium + accrual leg sums
    std::vector<double> grid_payoff;   ///< unscaled payoff sum
    std::vector<std::uint32_t> grid_ladder;
    std::vector<std::size_t> grid_prefix;
    std::vector<TimePoint> stub;
    std::vector<double> stub_discount;  ///< D(maturity)
    std::vector<double> stub_survival;  ///< Q(maturity)
    std::vector<Ladder> ladders;
    std::unordered_map<detail::ScheduleKey, std::uint32_t,
                       detail::ScheduleKeyHash>
        dedup;
    /// Knot-search tables (simd::SearchTables) of the last curves this
    /// workspace tabulated at a vector level. build_grids builds them on the
    /// first such tabulation and again only when the pricer's knot times
    /// differ; every column over those knot times reuses them, bumped and
    /// scenario curves included. clear() keeps them: they depend on the
    /// curves, not the batch.
    simd::SearchTables search;

    /// Empties the grids and ladders; keeps all memory and the search
    /// tables.
    void clear();
    /// Grids with tabulated columns. A batch that threw in dedup leaves the
    /// grids it registered after these; the next build_grids tabulates
    /// them.
    std::size_t tabulated_grids() const { return stub.size(); }
    /// Points tabulated: every ladder's points plus one stub per grid.
    std::size_t tabulated_points() const;
    /// Grid g's checked sums from its ladder and stub.
    detail::GridSums grid_sums(std::size_t g) const;
  };

  /// Scratch for price_with_sensitivities(): the base pricing workspace,
  /// the leg sums of every grid under every bumped scenario, and one block
  /// of scenario scratch. Same reuse contract as Workspace: one per
  /// concurrent caller, warmed across calls. Bumps move knot values, never
  /// knot times, so the bumped interest columns search through base.search
  /// and the hazard bumps share one set of brackets per block.
  struct RiskWorkspace {
    Workspace base;
    /// Scenario-major, row k holding grid g at k * grids + g. Rows: the
    /// parallel hazard bump up and down, each ladder bucket's up and down,
    /// then the parallel interest bump up and down.
    std::vector<double> scenario_annuity;
    std::vector<double> scenario_payoff;
    /// The bumped hazard values, one row of knots per hazard scenario.
    std::vector<double> hazard_rows;
    /// Rebuilt for every block of every call, so it never serves another
    /// call's curves.
    detail::ScenarioBlock block;

    /// Empties the base grids. The scenario sums and the block are fully
    /// rewritten by every call, so they keep their contents and memory.
    void clear() { base.clear(); }
  };

  /// Everything the convenience risk overload produces.
  struct RiskRun {
    /// Per option, batch order (ids are implicit: entry i belongs to
    /// options[i]).
    std::vector<Sensitivities> sensitivities;
    /// Row-major [option][bucket]; empty when no ladder was requested.
    std::vector<double> cs01_ladder;
    std::size_t ladder_buckets = 0;
    BatchRiskStats stats;
  };

  /// Both curves are copied and the hazard prefix table is built once; the
  /// pricer is immutable afterwards (safe to share across threads, each
  /// thread bringing its own Workspace).
  ///
  /// `kernel_level` selects the SIMD tier of the tabulation/combine passes
  /// and is clamped to what the host supports (simd::resolve_level), so
  /// requesting kAvx512 on an AVX2-only machine degrades safely. The
  /// CDSFLOW_SIMD environment override applies where engines construct the
  /// pricer with simd::active_level(); direct construction takes the level
  /// literally (modulo hardware).
  explicit BatchPricer(TermStructure interest, TermStructure hazard,
                       simd::Level kernel_level = simd::Level::kScalar);

  const TermStructure& interest() const { return interest_; }
  const TermStructure& hazard() const { return hazard_; }
  const HazardPrefix& hazard_prefix() const { return hazard_prefix_; }
  /// The SIMD tier the kernel actually runs at (post hardware clamp).
  simd::Level kernel_level() const { return kernel_level_; }

  /// Prices options[i] into out[i] (ids preserved, batch order). `out` must
  /// have the same length as `options`. Throws cdsflow::Error on invalid
  /// options or an unpriceable grid (non-positive risky annuity), exactly
  /// like the scalar reference.
  BatchStats price(std::span<const CdsOption> options,
                   std::span<SpreadResult> out, Workspace& workspace) const;

  /// Convenience overload that owns its workspace and result vector.
  std::vector<SpreadResult> price(const std::vector<CdsOption>& options) const;

  /// Batched risk kernel: per-option CS01 / IR01 / Rec01 / JTD (and, when
  /// config.ladder_edges is set, the bucketed CS01 ladder) in one pass over
  /// the precomputed grids. `out` must match `options` in length;
  /// `ladder_out` must hold options.size() * buckets values (row-major per
  /// option) and be empty when no ladder is requested. Bit-consistent with
  /// compute_sensitivities / cs01_ladder (see the file header; documented
  /// tolerance 1e-12 relative). Throws cdsflow::Error exactly where the
  /// scalar reference does (invalid options, non-positive risky annuity
  /// under any scenario, bad bump or ladder edges).
  BatchRiskStats price_with_sensitivities(std::span<const CdsOption> options,
                                          std::span<Sensitivities> out,
                                          std::span<double> ladder_out,
                                          RiskWorkspace& workspace,
                                          const BatchRiskConfig& config = {})
      const;

  /// Convenience overload that owns its workspace and result buffers.
  RiskRun price_with_sensitivities(const std::vector<CdsOption>& options,
                                   const BatchRiskConfig& config = {}) const;

  /// Passes 1-2 of the kernel (dedup + ladder and stub tabulation): the one
  /// place grids are deduplicated and tabulated, shared by the pricing and
  /// risk paths, the scenario sweep (which builds the base grids once and
  /// re-tabulates only the moved column per scenario) and the streaming
  /// pricer. Grids already in `ws` are reused; the (maturity, frequency)
  /// pairs it lacks are appended, their ladders extended where they need
  /// more points, and the new ladder points and stubs tabulated, after
  /// ws.search is prepared for this pricer's curves. Fills grid_of for
  /// `options` and everything per grid; returns stats with options set and
  /// unique_schedules / grid_points counting every grid and tabulated point
  /// in `ws` (on a cleared workspace, this batch's; scalar_points is left
  /// to the caller's combine loop).
  BatchStats build_grids(std::span<const CdsOption> options,
                         Workspace& ws) const;

 private:
  TermStructure interest_;
  TermStructure hazard_;
  HazardPrefix hazard_prefix_;
  simd::Level kernel_level_ = simd::Level::kScalar;
};

namespace detail {

/// Points `block` at grids [first, last) of `ws`: copies every ladder and
/// the grids' stubs (points and base columns) into the block and builds
/// their hazard brackets against the scenarios' shared `knot_times`.
void build_scenario_block(std::span<const double> knot_times,
                          const BatchPricer::Workspace& ws, std::size_t first,
                          std::size_t last, ScenarioBlock& block);

/// Receives one hazard scenario's checked sums for the block's grids; the
/// spans alias the block's scratch and are valid only during the call.
using ScenarioSumsSink =
    std::function<void(std::size_t row, std::span<const double> annuity,
                       std::span<const double> payoff)>;

/// The kHazard group loop over hazard scenarios given as rows of knot
/// values, lanes(level) rows per group: transpose (a partial group pads
/// with its last row; ops are lane-wise, so no real lane moves),
/// simd::sweep_survival_group over the block's points, one
/// simd::sweep_ladder_sums_group scan per ladder against the base discount
/// column, simd::sweep_stub_sums_group over the grids, then each row's
/// checked_grid_sums to `sink`. A row's bits equal a BatchPricer pass on
/// its curve at `level`.
void hazard_scenario_sums(std::span<const double> rows, ScenarioBlock& block,
                          simd::Level level, const ScenarioSumsSink& sink);

/// One interest scenario over the block: its discount column at the block
/// points (searched via `search`, the base workspace's interest table), a
/// scan_leg_sums per ladder and stub_grid_sums per grid against the
/// block-ordered `survival`, left in block.annuity / payoff.
void rate_scenario_sums(const TermStructure& interest,
                        const simd::SearchTable& search,
                        std::span<const double> survival,
                        ScenarioBlock& block, simd::Level level);

}  // namespace detail

}  // namespace cdsflow::cds
