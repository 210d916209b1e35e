/// \file bench_cpu_vector.cpp
/// SIMD vector kernel: single-thread throughput of the vector-lane batch
/// kernel (cds/vector_kernel.hpp) against the scalar batch kernel it
/// dispatches away from, reported as JSON for the cross-PR perf trajectory.
///
/// Both kernels share the dedup and the payment ladders, so the delta
/// isolates what the lanes buy: the tabulation exp/search math W points at
/// a time and the branch-free combine W options at a time. The same two
/// book styles as bench_batch_pricer bracket the mix:
///   - "continuous": ~no schedule reuse, one stub tabulated per grid, cost
///     is tabulation-dominated -- this is where the lanes bite, and the
///     headline `single_thread_speedup` (acceptance bar: >= 2x on a SIMD
///     host) is measured on this book;
///   - "standard-tenor": 5 grids for the whole book, cost is
///     combine-dominated.
/// A risk section repeats the comparison for the batched Greeks pass, and
/// `shard64_vs_whole` prices the continuous book again as consecutive
/// 64-option spans on one warm workspace -- the runtime's intraday shard
/// shape -- over the whole-book time: what a per-call cost the whole-book
/// call amortises adds back at shard size (1.0 means none).
///
/// Parity is asserted, not just reported: every vector spread must match the
/// scalar kernel within VectorKernelContract::kSpreadRelTol or the bench
/// exits 1 (the documented contract, enforced wherever the kernel runs). A
/// sub-2x speedup only warns -- on a host without SIMD lanes the vector
/// kernel *is* the scalar kernel and the ratio sits at ~1.0 by design.
///
/// Usage: bench_cpu_vector [n_options] [knots] [out.json]
///   defaults: 16384 1024 BENCH_cpu_vector.json

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/precision.hpp"
#include "cds/vector_kernel.hpp"
#include "common/format.hpp"
#include "common/stats.hpp"
#include "report/table.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"

namespace {

using namespace cdsflow;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct BookResult {
  std::string book;
  double scalar_seconds = 0.0;
  double vector_seconds = 0.0;
  double speedup = 0.0;
  double max_rel_vs_scalar = 0.0;
  cds::BatchStats stats;
};

BookResult run_book(const std::string& name, const cds::BatchPricer& scalar,
                    const cds::BatchPricer& vector,
                    const std::vector<cds::CdsOption>& book) {
  BookResult out;
  out.book = name;

  cds::BatchPricer::Workspace ws;
  std::vector<cds::SpreadResult> want(book.size());
  out.scalar_seconds = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    scalar.price(book, want, ws);
    out.scalar_seconds = std::min(out.scalar_seconds, seconds_since(t0));
  }

  std::vector<cds::SpreadResult> got(book.size());
  out.vector_seconds = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    out.stats = vector.price(book, got, ws);
    out.vector_seconds = std::min(out.vector_seconds, seconds_since(t0));
  }

  for (std::size_t i = 0; i < book.size(); ++i) {
    out.max_rel_vs_scalar =
        std::max(out.max_rel_vs_scalar,
                 relative_difference(got[i].spread_bps, want[i].spread_bps));
  }
  out.speedup = out.scalar_seconds / out.vector_seconds;
  return out;
}

/// Best-of-repeats time to price `book` as consecutive `span`-option calls
/// on one workspace, warmed by the first repeat.
double time_spans(const cds::BatchPricer& pricer,
                  const std::vector<cds::CdsOption>& book, std::size_t span) {
  cds::BatchPricer::Workspace ws;
  std::vector<cds::SpreadResult> out(book.size());
  const auto options = std::span<const cds::CdsOption>(book);
  const auto results = std::span<cds::SpreadResult>(out);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t begin = 0; begin < book.size(); begin += span) {
      const std::size_t n = std::min(span, book.size() - begin);
      pricer.price(options.subspan(begin, n), results.subspan(begin, n), ws);
    }
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Best-of-repeats risk pass (spreads + CS01/IR01/Rec01/JTD + 4-bucket
/// ladder) with a warmed workspace.
double time_risk(const cds::BatchPricer& pricer,
                 const std::vector<cds::CdsOption>& book,
                 const cds::BatchRiskConfig& config) {
  cds::BatchPricer::RiskWorkspace ws;
  std::vector<cds::Sensitivities> sens(book.size());
  std::vector<double> ladder(book.size() * (config.ladder_edges.size() - 1));
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    pricer.price_with_sensitivities(book, sens, ladder, ws, config);
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_options =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16384;
  const std::size_t knots =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1024;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_cpu_vector.json";

  const auto interest = workload::paper_interest_curve(knots);
  const auto hazard = workload::paper_hazard_curve(knots);
  const auto level = cds::simd::active_level();
  std::cout << "== SIMD vector kernel vs scalar batch kernel ("
            << cds::simd::to_string(level) << ", " << cds::simd::lanes(level)
            << " lane(s)), " << n_options << " options, " << knots
            << "-knot curves ==\n\n";

  const cds::BatchPricer scalar(interest, hazard);
  const cds::BatchPricer vector(interest, hazard, level);

  workload::PortfolioSpec continuous;
  continuous.count = n_options;
  continuous.seed = 7;
  workload::PortfolioSpec tenor = continuous;
  tenor.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};

  const auto continuous_book = workload::make_portfolio(continuous);
  std::vector<BookResult> results;
  results.push_back(run_book("continuous", scalar, vector, continuous_book));
  results.push_back(run_book("standard-tenor", scalar, vector,
                             workload::make_portfolio(tenor)));

  report::Table table("Single-thread throughput, scalar vs vector kernel");
  table.set_columns({"Book", "Scalar opts/s", "Vector opts/s", "Speedup",
                     "Unique grids", "Max rel vs scalar"});
  bool parity_ok = true;
  for (const auto& r : results) {
    const double n = static_cast<double>(r.stats.options);
    table.add_row({r.book, with_thousands(n / r.scalar_seconds, 0),
                   with_thousands(n / r.vector_seconds, 0),
                   fixed(r.speedup, 1) + "x",
                   std::to_string(r.stats.unique_schedules),
                   compact(r.max_rel_vs_scalar)});
    parity_ok = parity_ok &&
                r.max_rel_vs_scalar <=
                    cds::VectorKernelContract::kSpreadRelTol;
  }
  std::cout << table.render_text() << '\n';

  // The intraday shard shape: the continuous book as 64-option calls.
  const double shard64_seconds = time_spans(vector, continuous_book, 64);
  const double shard64_vs_whole =
      shard64_seconds / results.front().vector_seconds;
  std::cout << "continuous book as 64-option spans: "
            << fixed(shard64_seconds * 1e3, 3) << " ms vs "
            << fixed(results.front().vector_seconds * 1e3, 3)
            << " ms whole (" << fixed(shard64_vs_whole, 2) << "x)\n";

  // Batched Greeks: the risk pass tabulates every bumped curve (hazard
  // bumps W abreast, interest bumps a column each), so the lanes pay off
  // again. Smaller book keeps the bench quick.
  workload::PortfolioSpec risk_spec = continuous;
  risk_spec.count = std::min<std::size_t>(n_options, 4096);
  const auto risk_book = workload::make_portfolio(risk_spec);
  cds::BatchRiskConfig risk_config;
  risk_config.ladder_edges = {1.0, 3.0, 5.0, 7.0, 10.0};
  const double risk_scalar = time_risk(scalar, risk_book, risk_config);
  const double risk_vector = time_risk(vector, risk_book, risk_config);
  const double risk_speedup = risk_scalar / risk_vector;
  std::cout << "risk pass (" << risk_book.size()
            << " options, 4-bucket ladder): "
            << with_thousands(risk_book.size() / risk_scalar, 0) << " -> "
            << with_thousands(risk_book.size() / risk_vector, 0)
            << " options/s (" << fixed(risk_speedup, 1) << "x)\n";

  // Headline: the tabulation-dominated continuous book, where the lane win
  // lives (the acceptance bar for the vector kernel).
  const double headline = results.front().speedup;

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"cpu_vector\",\n"
       << "  \"n_options\": " << n_options << ",\n"
       << "  \"curve_knots\": " << knots << ",\n"
       << "  \"simd_level\": \"" << cds::simd::to_string(level) << "\",\n"
       << "  \"lanes\": " << cds::simd::lanes(level) << ",\n"
       << "  \"single_thread_speedup\": " << headline << ",\n"
       << "  \"risk_speedup\": " << risk_speedup << ",\n"
       << "  \"shard64_vs_whole\": " << shard64_vs_whole << ",\n"
       << "  \"spread_rel_tol\": "
       << cds::VectorKernelContract::kSpreadRelTol << ",\n"
       << "  \"parity_within_contract\": " << (parity_ok ? "true" : "false")
       << ",\n"
       << "  \"books\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << (i == 0 ? "" : ",") << "\n    {\"book\": \"" << r.book << "\""
         << ", \"scalar_kernel_seconds\": " << r.scalar_seconds
         << ", \"vector_seconds\": " << r.vector_seconds
         << ", \"speedup\": " << r.speedup
         << ", \"max_rel_vs_scalar\": " << r.max_rel_vs_scalar
         << ", \"unique_schedules\": " << r.stats.unique_schedules << "}";
  }
  json << "\n  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::cout << "JSON written to " << out_path << '\n';

  if (!parity_ok) {
    std::cerr << "FAIL: vector kernel diverged from the scalar kernel "
                 "beyond VectorKernelContract::kSpreadRelTol\n";
    return 1;
  }
  if (level != cds::simd::Level::kScalar && headline < 2.0) {
    std::cerr << "warning: single-thread vector speedup " << fixed(headline, 2)
              << "x below the 2x acceptance bar on this host/size\n";
  }
  return 0;
}
