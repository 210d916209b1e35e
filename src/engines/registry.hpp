/// \file registry.hpp
/// Name-based engine construction for examples, benches, the CLI and the
/// sharded runtime.
///
/// Recognised names:
///   "cpu"                   CPU engine, scalar reference kernel
///   "cpu-batch"             batched SoA fast-path kernel
///   "cpu-vec"               batch kernel on the SIMD vector kernels at the
///                           host's best level (cds/vector_kernel.hpp;
///                           scalar fallback when the host has none)
///   "cpu-sweep"             scenario-sweep family (cds::SweepPricer /
///                           runtime::SweepRuntime): the planner probes and
///                           plans it with the scenario count as the
///                           workload axis; for a plain price() call the
///                           engine is "cpu-vec" bit for bit
///   "cpu-risk"              scalar kernel + per-option Greeks (naive
///                           bumped-repricing loop)
///   "cpu-batch-risk"        batched Greeks over the precomputed grids
///                           (BatchPricer::price_with_sensitivities)
///   "cpu-vec-risk"          batched Greeks on the vector kernels
///   "xilinx-baseline"       Vitis library model
///   "dataflow"              optimised dataflow, restart per option
///   "dataflow-interoption"  free-running dataflow
///   "vectorised"            vectorised free-running dataflow
///   "multi-<N>"             N vectorised engines (e.g. "multi-5")
///   "cluster-<M>x<N>"       M cards of N vectorised engines each
///
/// The CPU family name is assembled as "cpu[-batch|-vec|-sweep][-risk]": the
/// optional kernel token picks the CpuKernel ("-batch" the fast-path
/// kernel, "-vec" the same kernel on the SIMD lanes, "-sweep" the
/// scenario-sweep family, none the reference kernel) and "-risk" switches
/// the run to sensitivities. Risk-mode details (bump size, ladder edges)
/// ride in the CpuEngineConfig argument. parse_cpu_engine_name and
/// cpu_engine_name are the grammar's only two homes: every CPU name in the
/// tree -- the engines' own name(), the planner's candidates, the stream and
/// cluster runtimes -- goes through them. A CPU engine prices on the calling
/// thread; the lane count is never part of a name. It comes from
/// runtime::RuntimeConfig::workers (or StreamConfig::lanes,
/// SweepRuntimeConfig::workers), which the CLI sets with --workers / --lanes.
///
/// Determinism guarantee: engine construction is pure (no global state), and
/// every engine the registry returns prices deterministically for a fixed
/// name + config + inputs. Per-option results never depend on which other
/// options share the call (the vector kernel is alignment-invariant,
/// docs/VECTOR_LANES.md), so runtime::PortfolioRuntime over N lanes
/// reproduces the single engine of the same name bit for bit -- spreads,
/// and for the risk kernels the Sensitivities and CS01-ladder rows -- for
/// every N and shard size. That is the property the sharded runtime's
/// submission-order merge relies on (see runtime/portfolio_runtime.hpp).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

/// Constructs an engine by name. Throws cdsflow::Error for unknown names.
std::unique_ptr<Engine> make_engine(const std::string& name,
                                    const cds::TermStructure& interest,
                                    const cds::TermStructure& hazard,
                                    const FpgaEngineConfig& fpga_config = {},
                                    const CpuEngineConfig& cpu_config = {});

/// Parses a "cpu[-batch|-vec|-sweep][-risk]" family name into `config`:
/// the kernel from the name, risk_mode set by "-risk" (a config that
/// already has it keeps it); other fields are left untouched.
/// Returns false -- leaving `config` unmodified -- when `name` is not a
/// CPU-family name. make_engine uses it, and the streaming runtime reuses it
/// so `cdsflow_cli stream` accepts the same engine names (risk mode
/// included) as the batch commands.
bool parse_cpu_engine_name(const std::string& name, CpuEngineConfig& config);

/// Assembles the "cpu[-batch|-vec|-sweep][-risk]" family name -- the
/// inverse of parse_cpu_engine_name. CpuEngine::name() and the planner's
/// CPU candidates are built with it.
std::string cpu_engine_name(CpuKernel kernel, bool risk_mode);

/// All fixed registry names (the parametrised multi-N form is represented
/// by "multi-5").
std::vector<std::string> engine_names();

}  // namespace cdsflow::engine
