// Per-technique ablation (extension of the paper's §V-D, which only
// separates Unified Labels from the other three techniques cumulatively):
// full Thrifty is compared against variants with exactly one design
// choice removed —
//   * Zero Convergence off (vertices holding 0 are still processed),
//   * Initial Push off (eager DO-LP-style bootstrap),
//   * Zero Planting degraded (zero on a random vertex / on vertex 0
//     instead of the maximum-degree hub),
//   * the pointer jump off (this repository's addition to the paper's
//     pulls; without it the loop is the paper's exact Algorithm 2).
// Each row reports time, iteration count, and edges processed, so the
// contribution of every technique called out in DESIGN.md is measurable
// in isolation.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common/datasets.hpp"
#include "bench_common/table_printer.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "support/env.hpp"
#include "support/math.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

struct VariantSpec {
  const char* label;
  core::ThriftyVariant variant;
};

int run() {
  const auto scale = support::bench_scale();
  bench::print_banner(
      std::string("Ablation: one Thrifty technique removed at a time "
                  "(scale: ") +
      support::to_string(scale) + ")");

  const std::vector<VariantSpec> variants{
      {"full", {}},
      {"-zero_conv",
       {.plant_site = core::PlantSite::kMaxDegree,
        .initial_push = true,
        .zero_convergence = false}},
      {"-init_push",
       {.plant_site = core::PlantSite::kMaxDegree,
        .initial_push = false,
        .zero_convergence = true}},
      {"rand_plant",
       {.plant_site = core::PlantSite::kRandom,
        .initial_push = true,
        .zero_convergence = true}},
      {"v0_plant",
       {.plant_site = core::PlantSite::kFirstVertex,
        .initial_push = true,
        .zero_convergence = true}},
      {"-jump", {.pointer_jump = false}},
  };

  for (const char* metric : {"time (ms)", "edges processed %", "iterations"}) {
    std::printf("\nMetric: %s\n", metric);
    std::vector<std::string> headers{"Dataset"};
    for (const auto& v : variants) headers.emplace_back(v.label);
    bench::TablePrinter table(headers);

    for (const auto& spec : bench::skewed_datasets()) {
      const graph::CsrGraph g = bench::build_dataset(spec, scale);
      std::vector<std::string> row{std::string(spec.name)};
      for (const auto& v : variants) {
        if (std::string(metric) == "time (ms)") {
          double best = 0.0;
          for (int t = 0; t < 3; ++t) {
            const auto r = core::thrifty_cc_variant(g, {}, v.variant);
            best = t == 0 ? r.stats.total_ms
                          : std::min(best, r.stats.total_ms);
          }
          row.push_back(bench::TablePrinter::fmt_ms(best));
        } else {
          core::CcOptions options;
          options.instrument = true;
          const auto r = core::thrifty_cc_variant(g, options, v.variant);
          if (std::string(metric) == "iterations") {
            row.push_back(std::to_string(r.stats.num_iterations));
          } else {
            row.push_back(bench::TablePrinter::fmt_percent(
                r.stats.edges_processed_fraction(g.num_directed_edges())));
          }
        }
      }
      table.add_row(std::move(row));
    }
    table.print();
  }
  std::printf(
      "\nExpected shapes: 'full' minimises every metric; removing Zero "
      "Convergence inflates edges processed the most; degraded planting "
      "sites slow convergence (random less than v0 on average).\n");
  return 0;
}

}  // namespace

int main() { return run(); }
