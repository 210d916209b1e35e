/// \file main.cpp
/// cdsbench: runs one benchmark workload against the library's public APIs,
/// checks its outputs and prints its metrics. perfbench/run.py builds and
/// drives it; see perfbench/NOTES.md.
///
/// Usage: cdsbench --workload intraday|eod|quotes|cluster --seed N
///                 --seconds S --trace 0|1 [--out-dir DIR]
///        cdsbench --list-metrics

#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

Outcome run_workload(const Options& opts) {
  if (opts.workload == "intraday") return run_intraday(opts);
  if (opts.workload == "eod") return run_eod(opts);
  if (opts.workload == "quotes") return run_quotes(opts);
  if (opts.workload == "cluster") return run_cluster(opts);
  Outcome out;
  out.invalid = "unknown workload '" + opts.workload + "'";
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : end_to_end_metrics()) {
        std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
      }
      for (const auto& m : per_layer_metrics()) {
        std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
      }
      for (const auto& m : wall_clock_metrics()) {
        std::cout << "printed " << m.name << ' ' << m.unit << '\n';
      }
      return 0;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << '\n';
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      std::cerr << "unknown argument " << arg << '\n';
      return 2;
    }
  }
  if (!(opts.seconds > 0.0)) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  std::string why;
  if (!benchmarkable_build(&why)) {
    std::cerr << "refusing to measure: " << why << '\n';
    return 2;
  }
  ::mkdir(opts.out_dir.c_str(), 0755);
  try {
    return emit(opts, run_workload(opts));
  } catch (const std::exception& e) {
    std::cout << "run aborted: " << e.what() << "; no metrics emitted\n";
    return 1;
  }
}
