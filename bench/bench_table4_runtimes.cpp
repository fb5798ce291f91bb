// Table IV reproduction: CC execution times (ms) for SV, BFS-CC, DO-LP,
// JT, Afforest, and Thrifty across every dataset stand-in.  The paper's
// shape claims to check here:
//   * on road networks, the disjoint-set algorithms (SV/JT/Afforest) beat
//     Thrifty;
//   * on skewed graphs, Thrifty is the fastest label-propagation
//     algorithm and competitive with / faster than Afforest;
//   * DO-LP is roughly an order of magnitude slower than Thrifty.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common/datasets.hpp"
#include "bench_common/harness.hpp"
#include "bench_common/table_printer.hpp"
#include "cc_baselines/registry.hpp"
#include "support/env.hpp"
#include "support/math.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

int run() {
  const auto scale = support::bench_scale();
  bench::print_banner(
      std::string("Table IV: CC execution times in milliseconds (scale: ") +
      support::to_string(scale) + ")");

  const auto algorithms = baselines::paper_algorithms();
  std::vector<std::string> headers{"Dataset"};
  for (const auto& algo : algorithms) {
    headers.emplace_back(algo.display_name);
  }
  bench::TablePrinter table(headers);

  bench::HarnessOptions harness;
  harness.trials = bench::default_trials();

  // Per-algorithm speedup-vs-Thrifty accumulators over skewed datasets.
  std::vector<std::vector<double>> speedups(algorithms.size());

  for (const auto& spec : bench::all_datasets()) {
    const graph::CsrGraph g = bench::build_dataset(spec, scale);
    std::vector<std::string> row{std::string(spec.name)};
    std::vector<double> times;
    for (const auto& algo : algorithms) {
      const bench::TimingResult timing =
          bench::time_algorithm(algo, g, harness);
      times.push_back(timing.min_ms);
      row.push_back(bench::TablePrinter::fmt_ms(timing.min_ms));
    }
    table.add_row(std::move(row));
    if (spec.power_law) {
      const double thrifty_ms = times.back();
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        if (thrifty_ms > 0.0 && times[a] > 0.0) {
          speedups[a].push_back(times[a] / thrifty_ms);
        }
      }
    }
  }
  table.print();

  std::printf(
      "\nGeomean speedup of Thrifty over each algorithm "
      "(skewed datasets; paper: SV 51.2x, BFS-CC 14.7x, JT 7.3x, "
      "Afforest 1.4x, DO-LP 25.2x):\n");
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    if (speedups[a].empty()) continue;
    std::printf("  Thrifty vs %-8s %6.2fx\n",
                std::string(algorithms[a].display_name).c_str(),
                support::geomean(speedups[a]));
  }
  return 0;
}

}  // namespace

int main() { return run(); }
