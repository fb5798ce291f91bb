// bench_serve_throughput — the serving layer under concurrent load.
//
// Splits an R-MAT edge list: the first part becomes the service's base
// graph (static Thrifty solve), the rest is ingested in batches by one
// writer thread while ≥4 reader threads hammer same/size/count queries
// against pinned snapshots.  Reports queries/sec and edges-ingested/sec.
//
// Correctness is checked, not assumed: after every recompaction the
// writer cross-checks the published partition against a from-scratch
// solve of the accumulated edges (ConnectivityService::
// verify_against_reference), and once more at the end; any mismatch
// exits 1, so CI can run this as a smoke gate.
//
//   bench_serve_throughput [--scale=N] [--ef=N] [--readers=N]
//                          [--batch=N] [--seconds=S]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/table_printer.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "serve/service.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)
using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

struct Options {
  int scale = 14;
  int edge_factor = 8;
  int readers = 4;
  std::size_t batch = 4096;
  /// Reader measurement window; the writer stops when ingest is done.
  double min_seconds = 1.0;
};

int int_arg(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::atoi(arg.c_str() + prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.scale = int_arg(argc, argv, "scale", options.scale);
  options.edge_factor = int_arg(argc, argv, "ef", options.edge_factor);
  options.readers = std::max(4, int_arg(argc, argv, "readers", 4));
  options.batch = static_cast<std::size_t>(
      int_arg(argc, argv, "batch", static_cast<int>(options.batch)));
  options.min_seconds =
      int_arg(argc, argv, "seconds", 0) > 0
          ? static_cast<double>(int_arg(argc, argv, "seconds", 0))
          : options.min_seconds;

  gen::RmatParams params;
  params.scale = options.scale;
  params.edge_factor = options.edge_factor;
  const EdgeList all = gen::rmat_edges(params);
  const auto n = static_cast<VertexId>(1u << options.scale);

  // Base = first 60%; the remaining 40% streams through ingest_batch.
  const std::size_t base_count = all.size() * 6 / 10;
  const EdgeList base(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(base_count));
  graph::BuildOptions build;
  build.remove_zero_degree_vertices = false;  // ids must stay stable
  serve::ConnectivityService service(
      std::move(graph::build_csr(base, n, build).graph));

  std::printf("bench_serve_throughput: scale=%d n=%u base=%zu stream=%zu "
              "readers=%d batch=%zu\n",
              options.scale, n, base_count, all.size() - base_count,
              options.readers, options.batch);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_queries{0};
  std::atomic<int> verify_failures{0};

  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(options.readers));
  for (int t = 0; t < options.readers; ++t) {
    readers.emplace_back([&service, &stop, &total_queries, t, n] {
      std::uint64_t local = 0;
      std::uint64_t state = support::hash_mix(
          static_cast<std::uint64_t>(t) + 1, 0xbe9cull);
      while (!stop.load(std::memory_order_relaxed)) {
        // Pin once, answer a burst: the intended client pattern.
        const serve::SnapshotPtr snapshot = service.snapshot();
        for (int q = 0; q < 64; ++q) {
          state = support::hash_mix(state, 0x9e37ull);
          const auto u = static_cast<VertexId>(state % n);
          const auto v = static_cast<VertexId>((state >> 20) % n);
          volatile bool same = snapshot->same_component(u, v);
          (void)same;
          volatile std::uint64_t size = snapshot->component_size(u);
          (void)size;
        }
        local += 128;  // 64 same + 64 size
      }
      total_queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  support::Timer ingest_timer;
  std::uint64_t ingested = 0;
  std::uint64_t recompactions_checked = 0;
  {
    std::size_t next = base_count;
    while (next < all.size()) {
      const std::size_t end = std::min(next + options.batch, all.size());
      const std::span<const Edge> batch{all.data() + next, end - next};
      const serve::IngestReport report = service.ingest_batch(batch);
      ingested += report.accepted + report.self_loops;
      if (report.recompacted) {
        // From-scratch cross-check after every recompaction, under
        // concurrent readers.
        ++recompactions_checked;
        if (!service.verify_against_reference()) {
          std::fprintf(stderr,
                       "FAIL: post-recompaction partition diverges from "
                       "from-scratch solve (epoch %llu)\n",
                       static_cast<unsigned long long>(report.epoch));
          verify_failures.fetch_add(1);
        }
      }
      next = end;
    }
  }
  const double ingest_seconds = ingest_timer.elapsed_seconds();

  // Keep readers running to the minimum measurement window.
  support::Timer window;
  while (window.elapsed_seconds() + ingest_seconds < options.min_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double reader_seconds = ingest_seconds + window.elapsed_seconds();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  const std::uint64_t epoch = service.recompact();
  ++recompactions_checked;
  if (!service.verify_against_reference()) {
    std::fprintf(stderr,
                 "FAIL: final partition diverges from from-scratch solve "
                 "(epoch %llu)\n",
                 static_cast<unsigned long long>(epoch));
    verify_failures.fetch_add(1);
  }

  const double queries_per_sec =
      static_cast<double>(total_queries.load()) / reader_seconds;
  const double edges_per_sec =
      ingest_seconds > 0.0 ? static_cast<double>(ingested) / ingest_seconds
                           : 0.0;
  const serve::ServiceStats stats = service.stats();

  bench::TablePrinter table(
      {"metric", "value"});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3g", queries_per_sec);
  table.add_row({"queries/sec (all readers)", buffer});
  std::snprintf(buffer, sizeof buffer, "%.3g", edges_per_sec);
  table.add_row({"edges ingested/sec", buffer});
  table.add_row({"edges ingested", std::to_string(ingested)});
  table.add_row({"queries", std::to_string(total_queries.load())});
  table.add_row({"recompactions checked",
                 std::to_string(recompactions_checked)});
  table.add_row({"components", std::to_string(stats.components)});
  table.print();

  if (verify_failures.load() != 0) return 1;
  std::printf("verified: %llu recompaction cross-checks clean\n",
              static_cast<unsigned long long>(recompactions_checked));
  return 0;
}
