// Out-of-core sharded scalability (the paper's §V-B argument and §VII
// future work, measured on the one distributed path the repo has, the
// sharded solver of src/shard/): each dataset is persisted as a
// sharded snapshot and solved by streaming shard CSRs through the
// windowed mmap residency policy, for shard counts 1..8 and for a
// tight memory budget (one shard's worth).  Round 0 solves every shard
// with Thrifty; later rounds exchange boundary labels.  Besides the
// sweep/exchange time split the table reports the exchange volume:
// rounds, boundary-slot updates, and the bytes those updates would put
// on a wire as (slot, label) pairs of 8 bytes each.  Shape claims:
// shard-local sweep time scales with shard size while the boundary
// exchange (reported separately) stays a small fraction; the budgeted
// run keeps the resident window at one shard at the cost of reloads.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common/datasets.hpp"
#include "bench_common/table_printer.hpp"
#include "core/verify.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"
#include "shard/solver.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

/// Wire size of one boundary update: a 4-byte slot id plus a 4-byte
/// label.
constexpr double kBytesPerBoundaryUpdate = 8.0;

/// One streaming sharded solve over a persisted snapshot; aborts on a
/// wrong partition so the bench doubles as a correctness gate.
void run_sharded_row(const graph::CsrGraph& g,
                     const shard::ShardManifest& manifest,
                     std::uint64_t budget, const std::string& label,
                     bench::TablePrinter& table) {
  shard::ShardedCcOptions options;
  options.memory_budget_bytes = budget;
  support::Timer timer;
  const shard::ShardedCcResult result = shard::sharded_cc(manifest, options);
  const double solve_ms = timer.elapsed_ms();
  if (!core::verify_labels(g, result.label_span()).valid) {
    std::fprintf(stderr, "FATAL: wrong sharded result (%s)\n",
                 label.c_str());
    std::abort();
  }
  const auto& stats = result.stats;
  table.add_row({label, bench::TablePrinter::fmt_ms(solve_ms),
                 bench::TablePrinter::fmt_ms(stats.sweep_ms),
                 bench::TablePrinter::fmt_ms(stats.exchange_ms),
                 std::to_string(stats.rounds),
                 std::to_string(stats.boundary_updates),
                 bench::TablePrinter::fmt_ratio(
                     static_cast<double>(stats.boundary_updates) *
                     kBytesPerBoundaryUpdate / 1e6),
                 std::to_string(stats.shard_loads),
                 std::to_string(stats.evictions),
                 bench::TablePrinter::fmt_ratio(
                     static_cast<double>(stats.peak_window_bytes) /
                     (1024.0 * 1024.0))});
}

void run_sharded_dataset(const char* name, support::Scale scale) {
  const auto* spec = bench::find_dataset(name);
  const graph::CsrGraph g = bench::build_dataset(*spec, scale);
  std::printf("\nDataset: %s (%u vertices, %llu directed edges)\n", name,
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_directed_edges()));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bench_dist_shards_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  bench::TablePrinter table({"Shards", "Solve", "Sweep", "Exchange",
                             "Rounds", "Updates", "Exchange MB", "Loads",
                             "Evict", "Window MiB"});
  for (const int k : {1, 2, 4, 8}) {
    const shard::ShardedGraph sharded = shard::partition_shards(g, k);
    const std::string manifest_path =
        (dir / (std::string(name) + ".shards")).string();
    shard::write_sharded_snapshot(manifest_path, sharded);
    const shard::ShardManifest manifest =
        shard::read_shard_manifest(manifest_path);
    run_sharded_row(g, manifest, /*budget=*/0, std::to_string(k), table);
    if (k == 8) {
      // Tight budget: room for one shard, so the window must cycle.
      run_sharded_row(g, manifest, manifest.max_shard_csr_bytes(),
                      "8+budget", table);
    }
  }
  table.print();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

int run() {
  const auto scale = support::bench_scale();
  bench::print_banner(
      std::string("Out-of-core sharded solve: streaming window over a "
                  "persisted sharded snapshot (§V-B / §VII; scale: ") +
      support::to_string(scale) + ")");
  run_sharded_dataset("twitter", scale);
  run_sharded_dataset("gb_road", scale);
  std::printf(
      "\nShape check: sweep time tracks shard-local edge work while the "
      "boundary exchange (reported separately) tracks the cut size — "
      "large on the dense R-MAT, negligible on the road grid; the "
      "budgeted run holds the resident window at one shard's footprint "
      "at the cost of extra loads.\n");
  return 0;
}

}  // namespace

int main() { return run(); }
