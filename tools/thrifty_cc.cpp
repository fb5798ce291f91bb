// thrifty_cc — command-line connected components.
//
//   thrifty_cc <graph> [--algo=thrifty] [--threshold=0.01] [--trials=1]
//              [--out=labels.txt] [--verify] [--stats] [--list] [--mmap]
//              [--reorder=ORDER] [--seed=S]
//              [--shards=K] [--memory-budget=BYTES[k|m|g]]
//
// <graph> is a file (.el/.txt edge list, .bin binary CSR, .mtx Matrix
// Market) or a generator spec (gen:rmat:scale=16,ef=16 — see
// tools/tool_common.hpp).  --out writes one "vertex label" line per
// vertex.  --list prints the available algorithms and exits.  --mmap
// loads .bin snapshots as zero-copy mapped views.  --reorder solves on
// a relabelled copy of the graph (the locality-optimized path; ORDER is
// one of reorder::all_order_kinds(), by its to_string name) and maps
// the labels back to original ids, reporting the reorder cost
// separately from solve time so amortization stays honest; --seed only
// affects --reorder=random.
//
// --stats prints each iteration's direction, active vertices and label
// changes from the solve's RunStats.
//
// Every flag is parsed and checked before the graph is loaded or
// generated, so a bad value fails at once.
//
// --shards=K runs the sharded solver (src/shard/) on an in-memory
// K-way decomposition of the input.  A <snapshot>.shards manifest as
// the input runs the *streaming* sharded solver instead: shard CSRs
// are windowed through the mmap residency policy, and
// --memory-budget caps the resident window (accepts k/m/g suffixes;
// 0 or absent = unlimited).  Every shard's round-0 local solve is
// Thrifty, so sharded runs reject --algo/--reorder (exit 2); --verify
// needs the whole graph and is only available for the in-memory form.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/verify.hpp"
#include "instrument/run_stats.hpp"
#include "reorder/relabel.hpp"
#include "reorder/reorder.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"
#include "shard/solver.hpp"
#include "support/timer.hpp"
#include "tools/tool_common.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

/// Parses "1073741824" / "512m" / "2g" into bytes; nullopt on garbage.
std::optional<std::uint64_t> parse_bytes(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t multiplier = 1;
  std::string digits = text;
  switch (digits.back()) {
    case 'k': case 'K': multiplier = 1ull << 10; break;
    case 'm': case 'M': multiplier = 1ull << 20; break;
    case 'g': case 'G': multiplier = 1ull << 30; break;
    default: break;
  }
  if (multiplier != 1) digits.pop_back();
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits) * multiplier;
}

/// Shared tail of both sharded forms: report, optionally verify
/// against the full graph (in-memory form only), optionally dump
/// labels.
int finish_sharded(const tools::ArgParser& args,
                   const shard::ShardedCcResult& result, double solve_ms,
                   int num_shards, const graph::CsrGraph* full_graph) {
  std::printf("sharded: %llu components in %.2f ms (K=%d, rounds=%d)\n",
              static_cast<unsigned long long>(
                  core::count_components(result.label_span())),
              solve_ms, num_shards, result.stats.rounds);
  std::printf("shards: sweep %.2f ms, exchange %.2f ms, load %.2f ms, "
              "loads %llu, evictions %llu, peak window %.1f MiB, skipped "
              "%llu, boundary updates %llu\n",
              result.stats.sweep_ms, result.stats.exchange_ms,
              result.stats.load_ms,
              static_cast<unsigned long long>(result.stats.shard_loads),
              static_cast<unsigned long long>(result.stats.evictions),
              static_cast<double>(result.stats.peak_window_bytes) /
                  (1024.0 * 1024.0),
              static_cast<unsigned long long>(
                  result.stats.shards_skipped),
              static_cast<unsigned long long>(
                  result.stats.boundary_updates));
  if (args.has_flag("verify")) {
    if (full_graph == nullptr) {
      std::fprintf(stderr,
                   "verify: skipped (needs the whole graph; not "
                   "available for a .shards manifest input)\n");
    } else {
      const auto verdict =
          core::verify_labels(*full_graph, result.label_span());
      std::printf("verify: %s\n",
                  verdict.valid ? "ok" : verdict.message.c_str());
      if (!verdict.valid) return 1;
    }
  }
  if (const auto out_path = args.flag("out");
      out_path && !out_path->empty()) {
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path->c_str());
      return 1;
    }
    for (std::size_t v = 0; v < result.labels.size(); ++v) {
      out << v << ' ' << result.labels[v] << '\n';
    }
    std::fprintf(stderr, "labels written to %s\n", out_path->c_str());
  }
  return 0;
}

/// --shards=K / .shards-manifest entry point.
int run_sharded(const tools::ArgParser& args, bool manifest_input) {
  for (const char* flag : {"algo", "reorder"}) {
    if (args.flag(flag)) {
      std::fprintf(stderr, "--%s does not apply to sharded runs\n", flag);
      return 2;
    }
  }
  shard::ShardedCcOptions options;
  if (const double threshold = args.flag_double("threshold", -1.0);
      threshold >= 0.0) {
    options.cc.density_threshold = threshold;
  }
  if (const auto budget = args.flag("memory-budget")) {
    const auto bytes = parse_bytes(*budget);
    if (!bytes) {
      std::fprintf(stderr, "bad --memory-budget value '%s'\n",
                   budget->c_str());
      return 2;
    }
    options.memory_budget_bytes = *bytes;
  }

  const std::string& input = args.positional()[0];
  if (manifest_input) {
    const shard::ShardManifest manifest =
        shard::read_shard_manifest(input);
    std::fprintf(stderr,
                 "loaded: manifest %s (%u vertices, %llu directed "
                 "edges, %d shard(s)) [streaming]\n",
                 input.c_str(), manifest.num_vertices,
                 static_cast<unsigned long long>(
                     manifest.num_directed_edges),
                 manifest.num_shards());
    support::Timer timer;
    const shard::ShardedCcResult result =
        shard::sharded_cc(manifest, options);
    return finish_sharded(args, result, timer.elapsed_ms(),
                          manifest.num_shards(), nullptr);
  }

  const auto shards = args.flag_int("shards", 0);
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be a positive shard count\n");
    return 2;
  }
  if (options.memory_budget_bytes != 0) {
    std::fprintf(stderr,
                 "note: --memory-budget only applies to .shards "
                 "manifest inputs (in-memory decomposition ignores "
                 "it)\n");
  }
  tools::LoadOptions load_options;
  load_options.use_mmap = args.has_flag("mmap");
  const graph::CsrGraph g = tools::load_graph(input, load_options);
  std::fprintf(stderr, "loaded: %s%s\n", tools::summarize(g).c_str(),
               g.owns_memory() ? "" : " [mmap]");
  const shard::ShardedGraph sharded =
      shard::partition_shards(g, static_cast<int>(shards));
  support::Timer timer;
  const shard::ShardedCcResult result = shard::sharded_cc(sharded, options);
  return finish_sharded(args, result, timer.elapsed_ms(),
                        sharded.num_shards(), &g);
}

int run(int argc, char** argv) {
  const tools::ArgParser args(argc, argv);
  if (args.has_flag("list")) {
    std::printf("available algorithms:\n");
    for (const auto& entry : baselines::all_algorithms()) {
      std::printf("  %-14s %s\n", std::string(entry.name).c_str(),
                  std::string(entry.display_name).c_str());
    }
    return 0;
  }
  if (args.positional().size() != 1 || args.has_flag("help")) {
    std::fprintf(stderr,
                 "usage: thrifty_cc <graph|gen:spec> [--algo=thrifty] "
                 "[--threshold=T] [--trials=N] [--out=FILE] [--verify] "
                 "[--stats] [--list] [--mmap] "
                 "[--reorder=ORDER] [--seed=S] [--shards=K] "
                 "[--memory-budget=BYTES]\n");
    return args.has_flag("help") ? 0 : 2;
  }
  const auto unknown = args.unknown_flags(
      {"algo", "threshold", "trials", "out", "verify", "stats", "list",
       "help", "mmap", "reorder", "seed", "shards", "memory-budget"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }

  const double threshold = args.flag_double("threshold", -1.0);
  const auto trials =
      std::max<std::int64_t>(1, args.flag_int("trials", 1));
  const auto seed = static_cast<std::uint64_t>(args.flag_int("seed", 1));

  const bool manifest_input = tools::is_shard_manifest(args.positional()[0]);
  if (manifest_input || args.flag("shards") ||
      args.flag("memory-budget")) {
    return run_sharded(args, manifest_input);
  }

  const std::string algo_name = args.flag("algo").value_or("thrifty");
  const auto* entry = baselines::find_algorithm(algo_name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s' (try --list)\n",
                 algo_name.c_str());
    return 2;
  }
  auto order_kind = reorder::OrderKind::kNone;
  if (const auto text = args.flag("reorder")) {
    const auto parsed = reorder::parse_order_kind(*text);
    if (!parsed) {
      std::fprintf(stderr, "unknown reorder '%s' (expected %s)\n",
                   text->c_str(),
                   reorder::order_kind_names(" | ").c_str());
      return 2;
    }
    order_kind = *parsed;
  }

  tools::LoadOptions load_options;
  load_options.use_mmap = args.has_flag("mmap");
  const graph::CsrGraph g =
      tools::load_graph(args.positional()[0], load_options);
  std::fprintf(stderr, "loaded: %s%s\n", tools::summarize(g).c_str(),
               g.owns_memory() ? "" : " [mmap]");

  // The locality-optimized path: relabel, solve the reordered graph,
  // map labels back to original ids afterwards.  Reorder cost is timed
  // and reported apart from solve time.
  reorder::Permutation order;
  graph::CsrGraph reordered;
  double order_ms = 0.0;
  double apply_ms = 0.0;
  const graph::CsrGraph& solve_graph = [&]() -> const graph::CsrGraph& {
    if (order_kind == reorder::OrderKind::kNone) return g;
    support::Timer timer;
    order = reorder::make_order(g, order_kind, seed);
    order_ms = timer.elapsed_ms();
    timer.restart();
    reordered = reorder::apply_permutation(g, order);
    apply_ms = timer.elapsed_ms();
    return reordered;
  }();

  core::CcOptions options;
  options.instrument = args.has_flag("stats");
  core::CcResult result;
  for (std::int64_t t = 0; t < trials; ++t) {
    const core::CcOptions trial_options = [&] {
      if (threshold >= 0.0) {
        core::CcOptions o = options;
        o.density_threshold = threshold;
        return o;
      }
      return baselines::effective_options(*entry, options);
    }();
    core::CcResult run_result = entry->function(solve_graph, trial_options);
    if (t == 0 ||
        run_result.stats.total_ms < result.stats.total_ms) {
      result = std::move(run_result);
    }
  }

  double map_back_ms = 0.0;
  if (order_kind != reorder::OrderKind::kNone) {
    support::Timer timer;
    const std::vector<graph::Label> mapped =
        reorder::map_labels_back(result.label_span(), order);
    std::copy(mapped.begin(), mapped.end(), result.labels.data());
    map_back_ms = timer.elapsed_ms();
  }

  std::printf("%s: %llu components in %.2f ms (best of %lld)\n",
              algo_name.c_str(),
              static_cast<unsigned long long>(
                  core::count_components(result.label_span())),
              result.stats.total_ms, static_cast<long long>(trials));
  if (order_kind != reorder::OrderKind::kNone) {
    std::printf(
        "reorder: %s (order %.2f ms + apply %.2f ms + map-back %.2f ms, "
        "not counted in solve time)\n",
        reorder::to_string(order_kind), order_ms, apply_ms, map_back_ms);
  }
  if (args.has_flag("stats")) {
    std::printf("iterations: %d\n", result.stats.num_iterations);
    for (const auto& it : result.stats.iterations) {
      std::printf("  it %-3d %-14s active=%llu changes=%llu "
                  "edges=%llu %.3f ms\n",
                  it.index, instrument::to_string(it.direction),
                  static_cast<unsigned long long>(it.active_vertices),
                  static_cast<unsigned long long>(it.label_changes),
                  static_cast<unsigned long long>(it.edges_processed),
                  it.time_ms);
    }
    std::printf("edges processed: %llu (%.2f%% of directed)\n",
                static_cast<unsigned long long>(
                    result.stats.events.edges_processed),
                100.0 * result.stats.edges_processed_fraction(
                            g.num_directed_edges()));
  }

  if (args.has_flag("verify")) {
    const auto verdict = core::verify_labels(g, result.label_span());
    std::printf("verify: %s\n",
                verdict.valid ? "ok" : verdict.message.c_str());
    if (!verdict.valid) return 1;
  }

  if (const auto out_path = args.flag("out"); out_path && !out_path->empty()) {
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path->c_str());
      return 1;
    }
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      out << v << ' ' << result.labels[v] << '\n';
    }
    std::fprintf(stderr, "labels written to %s\n", out_path->c_str());
  }
  return 0;
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
