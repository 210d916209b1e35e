/// \file registry.hpp
/// Name-based engine construction for examples, benches, the CLI and the
/// sharded runtime.
///
/// Recognised names:
///   "cpu"                   single-thread CPU engine (scalar kernel)
///   "cpu-mt"                CPU engine on all hardware threads
///   "cpu-mt<N>"             CPU engine on N threads (e.g. "cpu-mt8")
///   "cpu-batch"             single-thread batched SoA fast-path kernel
///   "cpu-batch-mt"          batch kernel on all hardware threads
///   "cpu-batch-mt<N>"       batch kernel on N threads
///   "cpu-vec"               batch kernel on the SIMD vector kernels at the
///                           host's best level (cds/vector_kernel.hpp;
///                           scalar fallback when the host has none)
///   "cpu-vec-mt[<N>]"       vector kernel on all / N threads
///   "cpu-risk"              scalar kernel + per-option Greeks (naive
///                           bumped-repricing loop)
///   "cpu-risk-mt[<N>]"      scalar risk kernel on all / N threads
///   "cpu-batch-risk"        batched Greeks over the precomputed grids
///                           (BatchPricer::price_with_sensitivities)
///   "cpu-batch-risk-mt[<N>]"  batched risk kernel on all / N threads
///   "cpu-vec-risk[-mt[<N>]]"  batched Greeks on the vector kernels
///   "cpu-sweep[-mt[<N>]]"   scenario-sweep family (cds::SweepPricer /
///                           runtime::SweepRuntime): the planner probes and
///                           plans these with the scenario count as the
///                           workload axis; for a plain price() call the
///                           engine is "cpu-vec" bit for bit
///   "xilinx-baseline"       Vitis library model
///   "dataflow"              optimised dataflow, restart per option
///   "dataflow-interoption"  free-running dataflow
///   "vectorised"            vectorised free-running dataflow
///   "multi-<N>"             N vectorised engines (e.g. "multi-5")
///   "cluster-<M>x<N>"       M cards of N vectorised engines each
///
/// The CPU family name is assembled as
/// "cpu[-batch|-vec|-sweep][-risk][-mt[N]]": the optional kernel token picks
/// the CpuKernel ("-batch" the fast-path kernel, "-vec" the same kernel on
/// the SIMD lanes, "-sweep" the scenario-sweep family, none the reference
/// kernel), "-risk" switches the run to sensitivities, "-mt[N]" sets the
/// thread count. Risk-mode details (bump size, ladder edges) ride in the
/// CpuEngineConfig argument. parse_cpu_engine_name and cpu_engine_name are
/// the grammar's only two homes: every CPU name in the tree -- the engines'
/// own name(), the planner's candidates, the stream and cluster runtimes --
/// goes through them.
///
/// Determinism guarantee: engine construction is pure (no global state), and
/// every engine the registry returns prices deterministically for a fixed
/// name + config + inputs -- thread-count variants of the CPU engines
/// partition work but never change per-option arithmetic, so "cpu-batch-mt8"
/// reproduces "cpu-batch" bit-for-bit, and likewise for the risk variants.
/// That is the property the sharded runtime's submission-order merge relies
/// on (see runtime/portfolio_runtime.hpp).

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

/// Parses a "cpu[-batch|-vec|-sweep][-risk][-mt[N]]" family name into
/// `config`: kernel and threads from the name, risk_mode set by "-risk" (a
/// config that already has it keeps it); other fields are left untouched.
/// Returns false -- leaving `config` unmodified -- when `name` is not a
/// CPU-family name. make_engine uses it, and the streaming runtime reuses it
/// so `cdsflow_cli stream` accepts the same engine names (risk mode
/// included) as the batch commands.
bool parse_cpu_engine_name(const std::string& name, CpuEngineConfig& config);

/// Assembles the "cpu[-batch|-vec|-sweep][-risk][-mt[N]]" family name -- the
/// inverse of parse_cpu_engine_name (threads == 1 omits the -mt token,
/// threads == 0 means all hardware threads, "-mt"). CpuEngine::name() and
/// the planner's CPU candidates are built with it.
std::string cpu_engine_name(CpuKernel kernel, bool risk_mode,
                            unsigned threads);

/// All fixed registry names (the parametrised multi-N/cpu-mtN forms are
/// represented by "multi-5" and "cpu-mt").
std::vector<std::string> engine_names();

}  // namespace cdsflow::engine
