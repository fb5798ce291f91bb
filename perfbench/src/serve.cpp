// serve_mixed: a ConnectivityService over the base graph ingests the rest
// of the edges in fixed batches while reader threads query it in a closed
// loop.
#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <thread>

#include "graph/validate.hpp"
#include "io/mmap_io.hpp"
#include "serve/service.hpp"
#include "tools/tool_common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace graph = thrifty::graph;
namespace serve = thrifty::serve;
using graph::Label;
using graph::VertexId;

namespace {

constexpr int kReaders = 2;
constexpr int kTracePasses = 2;
/// Reader calls traced per reader; later calls run untraced so the load
/// on the writer stays the same while the trace stays small.
constexpr std::uint64_t kTracedReaderCalls = 20000;

struct Inputs {
  graph::CsrGraph base;
  std::vector<graph::Edge> ingest;
  std::vector<Label> reference;
  /// Size of each reference component, indexed by its representative.
  std::vector<std::uint64_t> reference_size;
};

struct ReaderTally {
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
  /// Calls made while an ingest_batch call was in flight.
  std::uint64_t during_ingest = 0;
};

struct Pass {
  double writer_ms = 0.0;  ///< sum of ingest_batch latencies
  Samples batch_ms;
  std::uint64_t accepted = 0;
  std::uint64_t merges = 0;
  std::uint64_t reader_calls_during_ingest = 0;
  serve::ServiceStats stats;
  graph::EdgeList accumulated;  ///< base CSR edges + overlay at the end
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Closed-loop reader on uniform random vertices.  Every answer is checked
/// against the final reference, which can only be more connected than any
/// published snapshot: a "same component" answer must hold there, and a
/// component can never be larger than its final component.
void reader_loop(const serve::ConnectivityService& service,
                 const Inputs& in, std::uint64_t seed,
                 const std::atomic<bool>& stop,
                 const std::atomic<bool>& ingesting, Track* track,
                 ReaderTally& tally) {
  const VertexId n = service.num_vertices();
  std::uint64_t state = seed;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto u = static_cast<VertexId>(splitmix64(state) % n);
    const auto v = static_cast<VertexId>(splitmix64(state) % n);
    const bool pair_query = (tally.calls & 1) == 0;
    bool ok = false;
    try {
      if (track != nullptr && tally.calls < kTracedReaderCalls) {
        serve::SnapshotPtr pinned;
        {
          const Span pin(track, "serve::ConnectivityService::snapshot");
          pinned = service.snapshot();
        }
        if (pair_query) {
          const Span query(track, "serve::Snapshot::same_component");
          ok = !pinned->same_component(u, v) ||
               in.reference[u] == in.reference[v];
        } else {
          const Span query(track, "serve::Snapshot::component_size");
          const std::uint64_t size = pinned->component_size(u);
          ok = size >= 1 && size <= in.reference_size[in.reference[u]];
        }
      } else if (pair_query) {
        ok = !service.same_component(u, v) ||
             in.reference[u] == in.reference[v];
      } else {
        const std::uint64_t size = service.component_size(u);
        ok = size >= 1 && size <= in.reference_size[in.reference[u]];
      }
    } catch (...) {
      ok = false;
    }
    ++tally.calls;
    if (!ok) ++tally.wrong;
    if (ingesting.load(std::memory_order_relaxed)) ++tally.during_ingest;
  }
}

/// Stops and joins the reader threads on every exit path.
class Readers {
 public:
  Readers(const serve::ConnectivityService& service, const Inputs& in,
          std::uint64_t seed, const std::atomic<bool>& ingesting,
          std::array<Track*, kReaders> tracks) {
    for (int r = 0; r < kReaders; ++r) {
      threads_[static_cast<std::size_t>(r)] = std::thread(
          reader_loop, std::cref(service), std::cref(in),
          seed * kReaders + static_cast<std::uint64_t>(r), std::cref(stop_),
          std::cref(ingesting), tracks[static_cast<std::size_t>(r)],
          std::ref(tallies_[static_cast<std::size_t>(r)]));
    }
  }
  ~Readers() { join(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  /// Joins the readers and returns their combined tally.
  ReaderTally join() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    ReaderTally total;
    for (const ReaderTally& t : tallies_) {
      total.calls += t.calls;
      total.wrong += t.wrong;
      total.during_ingest += t.during_ingest;
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::array<ReaderTally, kReaders> tallies_{};
  std::array<std::thread, kReaders> threads_;
};

/// One ingest pass: a fresh service over the base graph takes every ingest
/// batch while the readers run.  Correctness checks (after each
/// recompaction and at the end) are outside the writer timings.
Pass run_pass(const Inputs& in, std::uint64_t seed, Tracer& tracer,
              Track* writer, Outcome& out) {
  Pass pass;
  std::optional<serve::ConnectivityService> service;
  {
    graph::CsrGraph base = in.base;
    const Span call(writer, "serve::ConnectivityService");
    service.emplace(std::move(base));
  }
  std::atomic<bool> ingesting{false};
  Readers readers(*service, in, seed, ingesting,
                  {tracer.new_track(), tracer.new_track()});
  const std::span<const graph::Edge> edges(in.ingest);
  for (std::size_t at = 0; at < edges.size(); at += kServeBatchEdges) {
    const auto batch =
        edges.subspan(at, std::min(kServeBatchEdges, edges.size() - at));
    serve::IngestReport report;
    const bool ok = out.attempt("serve::ingest_batch", [&] {
      ingesting.store(true, std::memory_order_relaxed);
      const Stopwatch clock;
      {
        Span call(writer, "serve::ingest_batch");
        report = service->ingest_batch(batch);
        if (report.recompacted) call.rename("serve::ingest_batch[recompact]");
      }
      const double ms = clock.ms();
      ingesting.store(false, std::memory_order_relaxed);
      pass.batch_ms.add(ms);
      pass.writer_ms += ms;
      return report.accepted + report.self_loops == batch.size();
    });
    ingesting.store(false, std::memory_order_relaxed);
    if (!ok) continue;
    pass.accepted += report.accepted;
    pass.merges += report.merges;
    if (report.recompacted) {
      out.attempt("serve::verify_against_reference", [&] {
        const Span call(writer, "serve::verify_against_reference");
        return service->verify_against_reference();
      });
    }
  }
  const ReaderTally tally = readers.join();
  out.record("serve reader call", tally.calls, tally.wrong);
  pass.reader_calls_during_ingest = tally.during_ingest;
  out.attempt("serve final labels", [&] {
    const serve::SnapshotPtr last = service->snapshot();
    const auto labels = last->labels();
    return service->verify_against_reference() &&
           std::equal(labels.begin(), labels.end(), in.reference.begin(),
                      in.reference.end());
  });
  pass.stats = service->stats();
  {
    const Span call(writer, "serve::accumulated_edges");
    pass.accumulated = service->accumulated_edges();
  }
  return pass;
}

}  // namespace

void run_serve(const Context& ctx, Outcome& out) {
  const std::string base_path = ctx.file(kServeBase);
  Inputs in;
  in.base = thrifty::tools::load_graph(base_path);
  in.ingest = read_edges(ctx.file(kServeIngest));
  in.reference = read_labels(ctx.file(kReferenceLabels));
  if (in.reference.size() != in.base.num_vertices()) {
    throw std::runtime_error("serve_mixed: reference does not match base");
  }
  in.reference_size.assign(in.reference.size(), 0);
  for (const Label l : in.reference) ++in.reference_size[l];

  // Readers plus the writer's OpenMP team fill the CPUs and no more.
  const int readers = kReaders;
  omp_set_num_threads(std::max(1, ctx.nproc - readers));
  out.info("readers", readers);
  out.info("writer_team", granted_team());
  out.info("vertices", static_cast<double>(in.base.num_vertices()));
  out.info("ingest_edges", static_cast<double>(in.ingest.size()));
  out.info("batch_edges", static_cast<double>(kServeBatchEdges));

  Tracer tracer(ctx.trace);
  Track* writer = tracer.new_track();
  int passes = 0;
  Samples batches;
  double writer_ms = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t calls_during_ingest = 0;
  graph::EdgeList accumulated;
  const auto untraced_pass = [&] {
    Tracer off(false);
    Pass pass = run_pass(in, ctx.seed + static_cast<std::uint64_t>(passes),
                         off, nullptr, out);
    ++passes;
    batches.merge(pass.batch_ms);
    writer_ms += pass.writer_ms;
    accepted += pass.accepted;
    calls_during_ingest += pass.reader_calls_during_ingest;
    accumulated = std::move(pass.accumulated);
  };

  if (!ctx.trace) {
    // One pass per block: the pass count stays fixed, so the work behind
    // peak_rss_mb does not depend on machine speed.
    graph::CsrGraph resident;
    std::vector<Resident> residents;
    Samples solves;
    measure_blocks(ctx, 0.0, untraced_pass, [&] {
      if (residents.empty()) {
        resident = build_keeping_ids(accumulated, in.base.num_vertices());
        residents.push_back({&resident, in.reference});
      }
      solve_once(residents, solves, out);
    });
    out.timing("pipeline_ms", batches);
    report_solves(solves, out);
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  for (int i = 0; i < kTracePasses; ++i) untraced_pass();
  out.metric("serve.ingest_batch_ms", batches.median(), "ms");
  out.metric("serve.ingest_batch_ms_p90", batches.quantile(0.9), "ms");
  out.metric("serve.ingest_edges_per_s",
             static_cast<double>(accepted) / (writer_ms / 1e3), "1/s");
  out.metric("serve.query_mops",
             static_cast<double>(calls_during_ingest) / (writer_ms / 1e3) /
                 1e6,
             "Mops/s");

  const Pass traced = run_pass(in, ctx.seed, tracer, writer, out);
  for (int rep = 1; rep < kLayerReps; ++rep) {
    graph::CsrGraph base = in.base;
    const Span call(writer, "serve::ConnectivityService");
    const serve::ConnectivityService service(std::move(base));
  }
  out.metric("serve.start_ms",
             tracer.durations("serve::ConnectivityService").median(), "ms");
  out.metric("serve.ingest_ms",
             tracer.durations("serve::ingest_batch").median(), "ms");
  out.metric("serve.recompact_ms",
             tracer.durations("serve::ingest_batch[recompact]").median(),
             "ms");
  out.metric("serve.recompactions",
             static_cast<double>(traced.stats.recompactions), "count");
  out.metric("serve.merges_per_edge",
             traced.accepted == 0 ? 0.0
                                  : static_cast<double>(traced.merges) /
                                        static_cast<double>(traced.accepted),
             "ratio");
  out.metric("serve.pin_ns",
             tracer.durations("serve::ConnectivityService::snapshot").median() *
                 1e6,
             "ns");
  Samples queries = tracer.durations("serve::Snapshot::same_component");
  queries.merge(tracer.durations("serve::Snapshot::component_size"));
  out.metric("serve.query_ns", queries.median() * 1e6, "ns");
  tracer.counter("ingest_report.accepted",
                 static_cast<double>(traced.accepted));
  tracer.counter("ingest_report.merges", static_cast<double>(traced.merges));
  tracer.counter("service_stats.epoch",
                 static_cast<double>(traced.stats.epoch));
  tracer.counter("service_stats.recompactions",
                 static_cast<double>(traced.stats.recompactions));
  tracer.counter("service_stats.ingested_edges",
                 static_cast<double>(traced.stats.ingested_edges));
  tracer.counter("service_stats.pending_edges",
                 static_cast<double>(traced.stats.pending_edges));
  tracer.counter("service_stats.base_edges",
                 static_cast<double>(traced.stats.base_edges));
  tracer.counter("service_stats.components",
                 static_cast<double>(traced.stats.components));

  // graph::build_csr on the recompaction-sized accumulated edge list.
  graph::CsrGraph resident;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    out.attempt("graph::build_csr", [&] {
      const Span call(writer, "graph::build_csr");
      resident = build_keeping_ids(accumulated, in.base.num_vertices());
      return resident.num_vertices() == in.base.num_vertices();
    });
  }
  out.metric("graph.build_ms", tracer.durations("graph::build_csr").median(),
             "ms");
  for (int rep = 0; rep < kLayerReps; ++rep) {
    out.attempt("tools::load_graph", [&] {
      const Span call(writer, "tools::load_graph");
      return thrifty::tools::load_graph(base_path).num_vertices() ==
             in.base.num_vertices();
    });
    out.attempt("io::read_csr_mmap", [&] {
      const Span call(writer, "io::read_csr_mmap");
      return thrifty::io::read_csr_mmap(base_path).num_vertices() ==
             in.base.num_vertices();
    });
    out.attempt("graph::validate_csr", [&] {
      graph::ValidateOptions options;
      options.check_symmetry = false;
      const Span call(writer, "graph::validate_csr");
      return graph::validate_csr(in.base, options).ok();
    });
  }
  out.metric("io.load_ms", tracer.durations("tools::load_graph").median(),
             "ms");
  out.metric("io.mmap_load_ms",
             tracer.durations("io::read_csr_mmap").median(), "ms");
  out.metric("io.snapshot_mb",
             static_cast<double>(file_bytes(base_path)) / (1 << 20), "MiB");
  out.metric("graph.validate_ms",
             tracer.durations("graph::validate_csr").median(), "ms");

  const std::array<Resident, 1> residents = {{{&resident, in.reference}}};
  const double solve_ms = time_solves(residents, kTraceSolves, out).median();
  core_layer(residents, solve_ms, writer, tracer, out);
  out.metric("trace.overhead_pct",
             (traced.batch_ms.median() / batches.median() - 1.0) * 100.0,
             "%");
  tracer.write_json(ctx.file("trace.json"), out.to_json());
}

}  // namespace perfbench
