#include "engines/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "engines/registry.hpp"

namespace cdsflow::engine {

cds::simd::Level cpu_kernel_level(CpuKernel kernel) {
  return kernel == CpuKernel::kVec || kernel == CpuKernel::kSweep
             ? cds::simd::active_level()
             : cds::simd::Level::kScalar;
}

CpuEngine::CpuEngine(cds::TermStructure interest, cds::TermStructure hazard,
                     CpuEngineConfig config)
    : pricer_(std::move(interest), std::move(hazard)),
      threads_(config.threads),
      kernel_(config.kernel),
      risk_(config.risk_mode) {
  if (threads_ == 0) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
  if (kernel_ != CpuKernel::kReference) {
    batch_pricer_ = std::make_unique<cds::BatchPricer>(
        pricer_.interest(), pricer_.hazard(), cpu_kernel_level(kernel_));
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
  return cpu_engine_name(kernel_, risk_, threads_);
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
         (risk_ ? " + Greeks (CS01/IR01/Rec01/JTD)" : "") + ", " +
         std::to_string(threads_) + " thread(s) (" +
         (uses_openmp() ? "OpenMP" : "std::thread") + ")";
}

bool CpuEngine::uses_openmp() {
#if defined(CDSFLOW_HAVE_OPENMP)
  return true;
#else
  return false;
#endif
}

void CpuEngine::price_chunk(std::span<const cds::CdsOption> options,
                            std::size_t begin, std::size_t end,
                            PricingRun& run, Scratch& scratch) const {
  const std::size_t n = end - begin;
  if (risk_) {
    const std::size_t buckets = run.ladder_buckets;
    if (batch_pricer_) {
      batch_pricer_->price_with_sensitivities(
          options.subspan(begin, n),
          std::span<cds::Sensitivities>(run.sensitivities).subspan(begin, n),
          std::span<double>(run.cs01_ladder)
              .subspan(begin * buckets, n * buckets),
          scratch.risk, risk_config_);
    } else {
      // The naive post-pricing workflow: bumped repricings per option.
      for (std::size_t i = begin; i < end; ++i) {
        run.sensitivities[i] =
            cds::compute_sensitivities(pricer_.interest(), pricer_.hazard(),
                                       options[i], risk_config_.bump);
        if (buckets > 0) {
          const auto row = cds::cs01_ladder(
              pricer_.interest(), pricer_.hazard(), options[i],
              risk_config_.ladder_edges, risk_config_.bump);
          std::copy(row.begin(), row.end(),
                    run.cs01_ladder.begin() +
                        static_cast<std::ptrdiff_t>(i * buckets));
        }
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      run.results[i] = {options[i].id, run.sensitivities[i].spread_bps};
    }
    return;
  }
  if (batch_pricer_) {
    batch_pricer_->price(
        options.subspan(begin, n),
        std::span<cds::SpreadResult>(run.results).subspan(begin, n),
        scratch.batch);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    run.results[i] = {options[i].id,
                      pricer_.spread_bps(options[i], scratch.schedule)};
  }
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
  if (threads_ <= 1) {
    if (scratch_.empty()) scratch_.resize(1);
    price_chunk(options, 0, options.size(), run, scratch_[0]);
  } else {
    // One contiguous chunk per worker; the OpenMP and std::thread paths
    // execute the identical partition through price_chunk, each chunk on
    // its own warm scratch (kept across price() calls).
    const std::size_t chunk = (options.size() + threads_ - 1) / threads_;
    const auto n_chunks =
        static_cast<std::ptrdiff_t>((options.size() + chunk - 1) / chunk);
    if (scratch_.size() < static_cast<std::size_t>(n_chunks)) {
      scratch_.resize(static_cast<std::size_t>(n_chunks));
    }
    // An exception (invalid option, unpriceable grid) must not escape the
    // parallel region or a worker thread -- that would terminate the
    // process instead of surfacing a catchable Error. Capture the first
    // one and rethrow after the join, matching the serial path's contract.
    // The slot is locked for the final read too, not only the writes: the
    // join does publish it, but the lock keeps the access pattern uniform
    // and lets the thread-safety analysis prove it instead of trusting the
    // join edge (test_engines' WorkerThreadExceptionSurfacesAsError covers
    // this path).
    struct ErrorSlot {
      Mutex mu;
      std::exception_ptr first CDSFLOW_GUARDED_BY(mu);
    } slot;
    auto run_chunk = [&](std::ptrdiff_t c) noexcept {
      const std::size_t begin = static_cast<std::size_t>(c) * chunk;
      try {
        price_chunk(options, begin, std::min(options.size(), begin + chunk),
                    run, scratch_[static_cast<std::size_t>(c)]);
      } catch (...) {
        const MutexLock lock(slot.mu);
        if (!slot.first) slot.first = std::current_exception();
      }
    };
#if defined(CDSFLOW_HAVE_OPENMP)
#pragma omp parallel for schedule(static) num_threads(static_cast<int>(threads_))
    for (std::ptrdiff_t c = 0; c < n_chunks; ++c) {
      run_chunk(c);
    }
#else
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n_chunks));
    for (std::ptrdiff_t c = 0; c < n_chunks; ++c) {
      workers.emplace_back([&run_chunk, c] { run_chunk(c); });
    }
    for (auto& w : workers) w.join();
#endif
    std::exception_ptr first_error;
    {
      const MutexLock lock(slot.mu);
      first_error = slot.first;
    }
    if (first_error) std::rethrow_exception(first_error);
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
