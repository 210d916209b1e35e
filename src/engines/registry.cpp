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
  // CPU family, assembled as "cpu[-batch|-vec|-sweep][-risk][-mt[N]]":
  // strip the optional kernel and mode tokens, then parse the thread
  // suffix.
  CpuEngineConfig cfg = config;
  std::string cpu_name = name;
  const auto strip_token = [&cpu_name](const std::string& prefix) {
    if (cpu_name.rfind(prefix, 0) != 0) return false;
    cpu_name = "cpu" + cpu_name.substr(prefix.size());
    return true;
  };
  cfg.kernel = CpuKernel::kReference;
  for (const auto kernel :
       {CpuKernel::kBatch, CpuKernel::kVec, CpuKernel::kSweep}) {
    if (strip_token(std::string("cpu") +
                    kKernelTokens[static_cast<int>(kernel)])) {
      cfg.kernel = kernel;
      break;
    }
  }
  if (strip_token("cpu-risk")) cfg.risk_mode = true;
  unsigned n = 0;
  if (cpu_name == "cpu") {
    cfg.threads = 1;
  } else if (cpu_name == "cpu-mt") {
    cfg.threads = 0;  // all hardware threads
  } else if (parse_suffix_uint(cpu_name, "cpu-mt", n)) {
    cfg.threads = n;
  } else {
    return false;
  }
  config = cfg;
  return true;
}

std::string cpu_engine_name(CpuKernel kernel, bool risk_mode,
                            unsigned threads) {
  std::string name =
      std::string("cpu") + kKernelTokens[static_cast<int>(kernel)];
  if (risk_mode) name += "-risk";
  if (threads == 0) {
    name += "-mt";
  } else if (threads > 1) {
    name += "-mt" + std::to_string(threads);
  }
  return name;
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
              "'; known: cpu[-batch|-vec|-sweep][-risk][-mt[N]], "
              "xilinx-baseline, dataflow, dataflow-interoption, vectorised, "
              "multi-N, cluster-MxN");
}

std::vector<std::string> engine_names() {
  return {"cpu",      "cpu-mt",      "cpu-batch", "cpu-batch-mt",
          "cpu-vec",  "cpu-vec-mt",  "cpu-sweep", "cpu-sweep-mt",
          "cpu-risk", "cpu-batch-risk", "cpu-vec-risk",
          "xilinx-baseline", "dataflow", "dataflow-interoption",
          "vectorised", "multi-5"};
}

}  // namespace cdsflow::engine
