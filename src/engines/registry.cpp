#include "engines/registry.hpp"

#include <charconv>

#include "common/error.hpp"
#include "engines/cluster.hpp"
#include "engines/dataflow_engine.hpp"
#include "engines/interoption_engine.hpp"
#include "engines/multi_engine.hpp"
#include "engines/vectorised_engine.hpp"
#include "engines/xilinx_baseline.hpp"

namespace cdsflow::engine {

namespace {

bool parse_suffix_uint(const std::string& s, const std::string& prefix,
                       unsigned& out) {
  if (s.size() <= prefix.size() || s.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  const char* begin = s.data() + prefix.size();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end && out >= 1;
}

/// Kernel tokens of the CPU grammar, in CpuKernel order ("" = reference).
constexpr const char* kKernelTokens[] = {"", "-batch", "-vec", "-sweep"};

}  // namespace

bool parse_cpu_engine_name(const std::string& name, CpuEngineConfig& config) {
  for (const auto kernel : {CpuKernel::kReference, CpuKernel::kBatch,
                            CpuKernel::kVec, CpuKernel::kSweep}) {
    for (const bool risk : {false, true}) {
      if (name == cpu_engine_name(kernel, risk)) {
        config.kernel = kernel;
        config.risk_mode = config.risk_mode || risk;
        return true;
      }
    }
  }
  return false;
}

std::string cpu_engine_name(CpuKernel kernel, bool risk_mode) {
  return std::string("cpu") + kKernelTokens[static_cast<int>(kernel)] +
         (risk_mode ? "-risk" : "");
}

std::unique_ptr<Engine> make_engine(const std::string& name,
                                    const cds::TermStructure& interest,
                                    const cds::TermStructure& hazard,
                                    const FpgaEngineConfig& fpga_config,
                                    const CpuEngineConfig& cpu_config) {
  {
    CpuEngineConfig cfg = cpu_config;
    if (parse_cpu_engine_name(name, cfg)) {
      return std::make_unique<CpuEngine>(interest, hazard, cfg);
    }
  }
  unsigned n = 0;
  if (name == "xilinx-baseline") {
    return std::make_unique<XilinxBaselineEngine>(interest, hazard,
                                                  fpga_config);
  }
  if (name == "dataflow") {
    return std::make_unique<DataflowEngine>(interest, hazard, fpga_config);
  }
  if (name == "dataflow-interoption") {
    return std::make_unique<InterOptionEngine>(interest, hazard, fpga_config);
  }
  if (name == "vectorised") {
    return std::make_unique<VectorisedEngine>(interest, hazard, fpga_config);
  }
  if (parse_suffix_uint(name, "multi-", n)) {
    MultiEngineConfig cfg;
    cfg.engine = fpga_config;
    cfg.n_engines = n;
    return std::make_unique<MultiEngine>(interest, hazard, cfg);
  }
  // "cluster-<cards>x<engines>", e.g. "cluster-4x5".
  if (name.rfind("cluster-", 0) == 0) {
    const auto x = name.find('x', 8);
    if (x != std::string::npos) {
      unsigned cards = 0, engines = 0;
      if (parse_suffix_uint(name.substr(0, x), "cluster-", cards) &&
          parse_suffix_uint("e" + name.substr(x + 1), "e", engines)) {
        ClusterConfig cfg;
        cfg.n_cards = cards;
        cfg.per_card.engine = fpga_config;
        cfg.per_card.n_engines = engines;
        return std::make_unique<ClusterEngine>(interest, hazard, cfg);
      }
    }
  }
  throw Error("unknown engine name '" + name +
              "'; known: cpu[-batch|-vec|-sweep][-risk], xilinx-baseline, "
              "dataflow, dataflow-interoption, vectorised, multi-N, "
              "cluster-MxN (lane counts are not part of a name: set "
              "RuntimeConfig::workers, --workers or --lanes)");
}

std::vector<std::string> engine_names() {
  return {"cpu",      "cpu-batch",      "cpu-vec",      "cpu-sweep",
          "cpu-risk", "cpu-batch-risk", "cpu-vec-risk", "xilinx-baseline",
          "dataflow", "dataflow-interoption", "vectorised", "multi-5"};
}

}  // namespace cdsflow::engine
