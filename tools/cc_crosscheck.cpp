// cc_crosscheck — metamorphic cross-algorithm correctness harness.
//
// Sweeps seeded scenarios (src/testing/scenario.hpp) through every CC
// algorithm in the registry under perturbed schedules, checking
// cross-algorithm partition agreement, permutation invariance and
// edge-addition monotonicity against a sequential union-find oracle.
// Failures are delta-debugged down to a minimal edge list and written as
// replayable repro files.  Exits 0 on a clean sweep, 1 on any
// discrepancy, so CI can run it as a smoke gate.
//
//   cc_crosscheck [--scenarios=N] [--seed=S] [--perturb=none|sampled|all]
//                 [--corpus=FILE] [--repro-dir=DIR] [--no-minimize]
//                 [--no-permutation] [--no-monotonicity] [--no-service]
//                 [--no-sharded] [--max-failures=N] [--inject=split|merge]
//                 [--inject-into=ALGO] [--list-families]
//                 [--mmap-roundtrip] [--reorder=ORDER] [--shards=K]
//   cc_crosscheck --replay=FILE       (exit 1 iff the repro reproduces)
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "reorder/reorder.hpp"
#include "testing/crosscheck.hpp"
#include "tools/tool_common.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

/// The usage text; its --reorder names come from
/// reorder::all_order_kinds().
std::string usage() {
  return "usage: cc_crosscheck [--scenarios=N] [--seed=S]\n"
         "                     [--perturb=none|sampled|all] [--corpus=FILE]\n"
         "                     [--repro-dir=DIR] [--no-minimize]\n"
         "                     [--no-permutation] [--no-monotonicity]\n"
         "                     [--no-service] [--no-sharded]\n"
         "                     [--max-failures=N]\n"
         "                     [--inject=split|merge]\n"
         "                     [--inject-into=ALGO] [--list-families]\n"
         "                     [--mmap-roundtrip]\n"
         "                     [--reorder=" +
         reorder::order_kind_names("|") +
         "]\n"
         "                     [--shards=K]\n"
         "       cc_crosscheck --replay=FILE\n";
}

std::vector<std::string> read_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open corpus file '" + path + "'");
  }
  std::vector<std::string> specs;
  std::string line;
  while (std::getline(in, line)) {
    // Strip trailing comments and whitespace; skip blank lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.pop_back();
    }
    if (!line.empty()) specs.push_back(line);
  }
  return specs;
}

int replay(const std::string& path) {
  const testing::Repro repro = testing::read_repro_file(path);
  std::printf("replaying %s: algorithm=%s oracle=%s %s fault=%s\n",
              path.c_str(), repro.algorithm.c_str(), repro.oracle.c_str(),
              repro.setup.describe().c_str(),
              testing::to_string(repro.fault));
  std::printf("  %u vertices, %zu edges\n", repro.num_vertices,
              repro.edges.size());
  if (testing::replay_repro(repro)) {
    std::printf("REPRODUCED: %s\n", repro.detail.c_str());
    return 1;
  }
  std::printf("did not reproduce\n");
  return 0;
}

int run(int argc, char** argv) {
  const tools::ArgParser args(argc, argv);
  if (!args.positional().empty() || args.has_flag("help")) {
    std::fprintf(stderr, "%s", usage().c_str());
    return args.has_flag("help") ? 0 : 2;
  }
  const auto unknown = args.unknown_flags(
      {"scenarios", "seed", "perturb", "corpus", "repro-dir", "no-minimize",
       "no-permutation", "no-monotonicity", "no-service", "no-sharded",
       "max-failures", "inject", "inject-into", "list-families",
       "mmap-roundtrip", "reorder", "shards", "replay", "help"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n%s", unknown.front().c_str(),
                 usage().c_str());
    return 2;
  }

  if (args.has_flag("list-families")) {
    for (const std::string& family : testing::scenario_families()) {
      std::printf("%s\n", family.c_str());
    }
    return 0;
  }
  if (const auto path = args.flag("replay")) {
    return replay(*path);
  }

  testing::CrosscheckOptions options;
  options.num_scenarios =
      static_cast<int>(args.flag_int("scenarios", options.num_scenarios));
  options.base_seed = static_cast<std::uint64_t>(args.flag_int("seed", 1));
  options.max_failures = static_cast<int>(
      args.flag_int("max-failures", options.max_failures));
  options.minimize = !args.has_flag("no-minimize");
  options.permutation_oracle = !args.has_flag("no-permutation");
  options.monotonicity_oracle = !args.has_flag("no-monotonicity");
  options.service_oracle = !args.has_flag("no-service");
  options.sharded_oracle = !args.has_flag("no-sharded");
  options.mmap_roundtrip = args.has_flag("mmap-roundtrip");
  if (args.flag("shards")) {
    const auto shards = args.flag_int("shards", 0);
    if (shards < 2) {
      std::fprintf(stderr, "--shards needs K >= 2\n%s", usage().c_str());
      return 2;
    }
    if (!options.sharded_oracle) {
      std::fprintf(stderr, "--shards conflicts with --no-sharded\n%s",
                   usage().c_str());
      return 2;
    }
    options.forced_shards = static_cast<int>(shards);
  }
  if (const auto order = args.flag("reorder")) {
    const auto kind = reorder::parse_order_kind(*order);
    if (!kind) {
      std::fprintf(stderr, "bad --reorder value '%s'\n%s", order->c_str(),
                   usage().c_str());
      return 2;
    }
    options.forced_reorder = *kind;
  }
  if (const auto dir = args.flag("repro-dir")) options.repro_dir = *dir;
  if (const auto corpus = args.flag("corpus")) {
    options.corpus_specs = read_corpus(*corpus);
  }
  if (const auto mode = args.flag("perturb")) {
    if (*mode == "none") {
      options.perturb = testing::CrosscheckOptions::Perturb::kNone;
    } else if (*mode == "sampled") {
      options.perturb = testing::CrosscheckOptions::Perturb::kSampled;
    } else if (*mode == "all") {
      options.perturb = testing::CrosscheckOptions::Perturb::kFull;
    } else {
      std::fprintf(stderr, "bad --perturb value '%s'\n%s", mode->c_str(),
                   usage().c_str());
      return 2;
    }
  }
  if (const auto inject = args.flag("inject")) {
    const auto kind = testing::parse_fault_kind(*inject);
    if (!kind) {
      std::fprintf(stderr, "bad --inject value '%s'\n%s", inject->c_str(),
                   usage().c_str());
      return 2;
    }
    options.fault.kind = *kind;
    options.fault.algorithm = args.flag("inject-into").value_or("thrifty");
    if (baselines::find_algorithm(options.fault.algorithm) == nullptr) {
      std::fprintf(stderr, "unknown --inject-into algorithm '%s'\n",
                   options.fault.algorithm.c_str());
      return 2;
    }
  } else if (args.has_flag("inject-into")) {
    std::fprintf(stderr, "--inject-into requires --inject\n%s",
                 usage().c_str());
    return 2;
  }

  const testing::CrosscheckSummary summary =
      testing::run_crosscheck(options);
  std::printf(
      "cc_crosscheck: %d scenarios, %llu algorithm runs, %zu failures\n",
      summary.scenarios,
      static_cast<unsigned long long>(summary.algorithm_runs),
      summary.failures.size());
  for (const testing::FailureReport& report : summary.failures) {
    std::printf("FAIL [%s] %s on %s: %s (%u vertices, %zu edges%s%s)\n",
                report.repro.oracle.c_str(), report.repro.algorithm.c_str(),
                report.repro.scenario_spec.c_str(),
                report.repro.detail.c_str(), report.repro.num_vertices,
                report.repro.edges.size(),
                report.repro_path.empty() ? "" : ", repro: ",
                report.repro_path.c_str());
  }
  return summary.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
