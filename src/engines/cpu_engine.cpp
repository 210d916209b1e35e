#include "engines/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "engines/registry.hpp"

namespace cdsflow::engine {

cds::simd::Level cpu_kernel_level(CpuKernel kernel) {
  return kernel == CpuKernel::kVec || kernel == CpuKernel::kSweep
             ? cds::simd::active_level()
             : cds::simd::Level::kScalar;
}

CpuEngine::CpuEngine(cds::TermStructure interest, cds::TermStructure hazard,
                     CpuEngineConfig config)
    : kernel_(config.kernel), risk_(config.risk_mode) {
  // Each pricer validates both curves on construction.
  if (kernel_ == CpuKernel::kReference) {
    reference_pricer_.emplace(std::move(interest), std::move(hazard));
  } else {
    batch_pricer_.emplace(std::move(interest), std::move(hazard),
                          cpu_kernel_level(kernel_));
    kernel_level_ = batch_pricer_->kernel_level();
  }
  risk_config_.bump = config.risk_bump;
  risk_config_.ladder_edges = std::move(config.ladder_edges);
  if (risk_) {
    // Validate the risk configuration up front so both kernels reject bad
    // configs identically (the batch kernel re-checks per call; the scalar
    // loop would only trip per option).
    CDSFLOW_EXPECT(risk_config_.bump > 0.0 && std::isfinite(risk_config_.bump),
                   "sensitivity bump must be positive and finite");
    if (!risk_config_.ladder_edges.empty()) {
      cds::validate_ladder_edges(risk_config_.ladder_edges);
    }
  }
}

std::string CpuEngine::name() const {
  return cpu_engine_name(kernel_, risk_);
}

std::string CpuEngine::description() const {
  std::string kernel = "scalar reference kernel";
  if (kernel_ == CpuKernel::kVec || kernel_ == CpuKernel::kSweep) {
    kernel = std::string(kernel_ == CpuKernel::kSweep
                             ? "scenario-sweep SIMD kernel ("
                             : "SIMD batch kernel (") +
             cds::simd::to_string(kernel_level_) + ", " +
             std::to_string(cds::simd::lanes(kernel_level_)) + " lane(s))";
  } else if (kernel_ == CpuKernel::kBatch) {
    kernel = "batched SoA fast-path kernel";
  }
  return std::string("Bespoke C++ CPU engine, ") + kernel +
         (risk_ ? " + Greeks (CS01/IR01/Rec01/JTD)" : "") +
         ", on the calling thread";
}

PricingRun CpuEngine::price(std::span<const cds::CdsOption> options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  PricingRun run;
  run.results.resize(options.size());
  if (risk_) {
    run.sensitivities.resize(options.size());
    run.ladder_buckets = risk_config_.ladder_edges.empty()
                             ? 0
                             : risk_config_.ladder_edges.size() - 1;
    run.cs01_ladder.resize(options.size() * run.ladder_buckets);
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (risk_) {
    if (batch_pricer_) {
      batch_pricer_->price_with_sensitivities(options, run.sensitivities,
                                              run.cs01_ladder, scratch_.risk,
                                              risk_config_);
    } else {
      // The naive post-pricing workflow: bumped repricings per option.
      const std::size_t buckets = run.ladder_buckets;
      const cds::TermStructure& interest = reference_pricer_->interest();
      const cds::TermStructure& hazard = reference_pricer_->hazard();
      for (std::size_t i = 0; i < options.size(); ++i) {
        run.sensitivities[i] = cds::compute_sensitivities(
            interest, hazard, options[i], risk_config_.bump);
        if (buckets > 0) {
          const auto row =
              cds::cs01_ladder(interest, hazard, options[i],
                               risk_config_.ladder_edges, risk_config_.bump);
          std::copy(row.begin(), row.end(),
                    run.cs01_ladder.begin() +
                        static_cast<std::ptrdiff_t>(i * buckets));
        }
      }
    }
    for (std::size_t i = 0; i < options.size(); ++i) {
      run.results[i] = {options[i].id, run.sensitivities[i].spread_bps};
    }
  } else if (batch_pricer_) {
    batch_pricer_->price(options, run.results, scratch_.batch);
  } else {
    for (std::size_t i = 0; i < options.size(); ++i) {
      run.results[i] = {
          options[i].id,
          reference_pricer_->spread_bps(options[i], scratch_.schedule)};
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  run.kernel_seconds = std::chrono::duration<double>(t1 - t0).count();
  run.kernel_cycles = 0;  // native execution
  run.transfer_seconds = 0.0;
  run.invocations = 1;
  run.finalise(options.size());
  return run;
}

}  // namespace cdsflow::engine
