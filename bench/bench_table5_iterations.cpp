// Table V reproduction: iteration counts of DO-LP vs Thrifty (Thrifty's
// Initial Push counted as an iteration, as §V-C does) and their ratio.
// Shape claim: ratio < 1 everywhere, ~0.61 average in the paper (a 39%
// reduction), with the deepest graphs (WebBase) showing the biggest cut.
// The Thrifty column and the ratio are the paper-exact loop (pointer
// jump off); the default Thrifty's count, which jumps, is printed beside
// it.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common/datasets.hpp"
#include "bench_common/table_printer.hpp"
#include "core/dolp.hpp"
#include "core/thrifty.hpp"
#include "frontier/density.hpp"
#include "support/env.hpp"
#include "support/math.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

int run() {
  const auto scale = support::bench_scale();
  bench::print_banner(
      std::string("Table V: iterations of DO-LP vs Thrifty (scale: ") +
      support::to_string(scale) + ")");

  bench::TablePrinter table(
      {"Dataset", "DO-LP", "Thrifty", "Ratio", "Thrifty+jump"});
  std::vector<double> ratios;
  for (const auto& spec : bench::skewed_datasets()) {
    const graph::CsrGraph g = bench::build_dataset(spec, scale);
    core::CcOptions dolp_options;
    dolp_options.density_threshold = frontier::kLigraThreshold;
    const auto dolp = core::dolp_cc(g, dolp_options);
    const auto thrifty =
        core::thrifty_cc_variant(g, {}, {.pointer_jump = false});
    const auto jump = core::thrifty_cc(g);
    const double ratio =
        static_cast<double>(thrifty.stats.num_iterations) /
        static_cast<double>(dolp.stats.num_iterations);
    ratios.push_back(ratio);
    table.add_row({std::string(spec.name),
                   std::to_string(dolp.stats.num_iterations),
                   std::to_string(thrifty.stats.num_iterations),
                   bench::TablePrinter::fmt_ratio(ratio),
                   std::to_string(jump.stats.num_iterations)});
  }
  table.print();
  std::printf(
      "\nGeomean ratio: %.2f (paper: 0.61 average, i.e. a 39%% iteration "
      "reduction; every ratio should be <= 1)\n",
      support::geomean(ratios));
  return 0;
}

}  // namespace

int main() { return run(); }
