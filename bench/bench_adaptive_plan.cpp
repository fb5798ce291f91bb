// Adaptive execution planner vs fixed strategy scripts, across the
// scenario families the planner's decisions hinge on:
//   * rmat            — skewed R-MAT (Graph500 parameters): the paper's
//                       social-network shape, where the sampled-giant
//                       cutover and density switching both fire,
//   * hub_star        — a single hub owning almost every edge: the
//                       degenerate skew that keeps the planner on
//                       synchronous sweeps,
//   * two_clique_bridge — two dense blocks joined by one edge: high
//                       density, no useful frontier sparsity,
//   * uniform         — flat-quadrant R-MAT (a = b = c = d = 0.25):
//                       no skew, so mid-density sweeps may take the
//                       async drain.
// The plan column sweeps the fixed strategy scripts plus the
// barrier-free async drain (fixed:async); every (scenario, plan) pair
// is cross-checked against the union-find reference partition before
// it is timed — an adversarial plan may cost time, never correctness.
// `--json <path>` dumps the numbers for scripts/bench_compare.py.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/json_report.hpp"
#include "bench_common/table_printer.hpp"
#include "core/cc_common.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "plan/plan.hpp"
#include "plan/solve.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"
#include "support/run_config.hpp"
#include "support/timer.hpp"
#include "testing/oracles.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)
using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;
using graph::Label;
using graph::VertexId;

int scale_to_rmat_scale(support::Scale scale) {
  switch (scale) {
    case support::Scale::kTiny: return 12;
    case support::Scale::kLarge: return 16;
    case support::Scale::kSmall: break;
  }
  return 14;
}

CsrGraph build_rmat(int rmat_scale, bool uniform) {
  gen::RmatParams params;
  params.scale = rmat_scale;
  params.edge_factor = 8;
  if (uniform) {
    params.a = 0.25;
    params.b = 0.25;
    params.c = 0.25;
  }
  const auto n = static_cast<VertexId>(VertexId{1} << rmat_scale);
  return graph::build_csr(gen::rmat_edges(params), n).graph;
}

CsrGraph build_hub_star(int rmat_scale) {
  const auto n = static_cast<VertexId>(VertexId{1} << rmat_scale);
  EdgeList edges = gen::star_edges(n, 0);
  const EdgeList tree = gen::random_tree_edges(n, /*seed=*/0x7ab5);
  edges.insert(edges.end(), tree.begin(), tree.end());
  return graph::build_csr(edges, n).graph;
}

CsrGraph build_two_clique_bridge(int rmat_scale) {
  // Two cliques sized so the graph's edge count matches the R-MAT
  // scenarios' order of magnitude (k^2 ~ ef * 2^scale).
  const auto half = static_cast<VertexId>(
      VertexId{1} << (rmat_scale / 2 + 2));
  EdgeList edges = gen::clique_edges(half);
  const EdgeList second = gen::clique_edges(half);
  edges.reserve(edges.size() * 2 + 1);
  for (const Edge e : second) {
    edges.push_back({e.u + half, e.v + half});
  }
  edges.push_back({half - 1, half});
  return graph::build_csr(edges, half * 2).graph;
}

struct ScenarioRow {
  const char* name;
  CsrGraph graph;
};

struct PlanRow {
  /// Short label for tables/JSON.
  const char* name;
  /// The --plan / THRIFTY_PLAN spec text.
  const char* spec_text;
};

constexpr PlanRow kPlans[] = {
    {"auto", "auto"},
    {"pull", "fixed:pull"},
    {"pullf", "fixed:pullf"},
    {"push", "fixed:push"},
    {"pullf+push", "fixed:pullf,push"},
    {"finish", "fixed:finish"},
    {"async", "fixed:async"},
};

template <typename Fn>
double min_time_ms(int trials, Fn&& fn) {
  double best = 0.0;
  fn();  // warmup
  for (int t = 0; t < trials; ++t) {
    support::Timer timer;
    fn();
    const double ms = timer.elapsed_ms();
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

int run(int argc, char** argv) {
  const auto scale = support::bench_scale();
  const int trials = bench::default_trials();
  bench::print_banner(
      std::string("Adaptive plan vs fixed strategies (scale: ") +
      support::to_string(scale) + ", threads: " +
      std::to_string(support::num_threads()) + ")");

  const int rmat_scale = scale_to_rmat_scale(scale);
  std::vector<ScenarioRow> scenarios;
  scenarios.push_back({"rmat", build_rmat(rmat_scale, /*uniform=*/false)});
  scenarios.push_back({"hub_star", build_hub_star(rmat_scale)});
  scenarios.push_back({"two_clique_bridge",
                       build_two_clique_bridge(rmat_scale)});
  scenarios.push_back({"uniform", build_rmat(rmat_scale, /*uniform=*/true)});

  bench::JsonReport report;
  bench::TablePrinter table(
      {"Scenario", "Plan", "Best (ms)", "Steps", "vs auto"});

  const core::CcOptions cc_options;
  for (const ScenarioRow& scenario : scenarios) {
    std::printf("%s: %s\n", scenario.name,
                bench::describe_graph(scenario.graph).c_str());
    const std::vector<Label> reference =
        testing::reference_partition(scenario.graph);
    double auto_ms = 0.0;
    for (const PlanRow& plan : kPlans) {
      const plan::PlanSpec spec = plan::parse_plan_spec(plan.spec_text);
      // Correctness gate before any timing.
      plan::PlanResult checked =
          plan::solve_with_plan(scenario.graph, cc_options, spec);
      if (!core::same_partition(checked.result.label_span(), reference)) {
        std::fprintf(stderr,
                     "FATAL: plan '%s' on %s diverged from the "
                     "union-find reference — refusing to time\n",
                     plan.spec_text, scenario.name);
        std::abort();
      }
      const std::size_t steps = checked.trace.steps.size();
      const double ms = min_time_ms(trials, [&] {
        const plan::PlanResult timed =
            plan::solve_with_plan(scenario.graph, cc_options, spec);
        if (timed.result.labels.size() != checked.result.labels.size()) {
          std::abort();
        }
      });
      if (std::string(plan.name) == "auto") auto_ms = ms;
      const double vs_auto = auto_ms > 0.0 ? ms / auto_ms : 1.0;
      table.add_row({scenario.name, plan.name,
                     bench::TablePrinter::fmt_ms(ms),
                     bench::TablePrinter::fmt_count(steps),
                     bench::TablePrinter::fmt_ratio(vs_auto)});
      report.add({std::string(scenario.name) + "/" + plan.name,
                  {{"best_ms", ms},
                   {"steps", static_cast<double>(steps)},
                   {"vs_auto", vs_auto}}});
    }
  }

  table.print();
  std::printf("(vs auto > 1.0 means the fixed plan is slower than the "
              "adaptive planner)\n");

  const std::string json_path = bench::json_path_from_args(argc, argv);
  if (!json_path.empty() && !report.write_file(json_path)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
