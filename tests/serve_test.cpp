// Tests for the serving layer (src/serve): service semantics against the
// union-find reference after every ingest batch and recompaction,
// epoch-swap snapshot isolation, degenerate graphs, the staleness /
// recompaction policy, the line protocol and its input bounds, and a
// concurrent query+ingest stress test (the TSan target for the RCU
// epoch swap).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cc_baselines/reference_cc.hpp"
#include "core/cc_common.hpp"
#include "graph/builder.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace thrifty::serve {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::Label;
using graph::VertexId;

/// Builds a CSR over a fixed id space, zero-degree vertices kept: the
/// service's id space must not shift when edges are added later.
graph::CsrGraph make_graph(const EdgeList& edges, VertexId n) {
  graph::BuildOptions options;
  options.remove_zero_degree_vertices = false;
  return std::move(graph::build_csr(edges, n, options).graph);
}

/// Reference partition of (edges, n) via the sequential oracle.
std::vector<Label> reference_labels(const EdgeList& edges, VertexId n) {
  const graph::CsrGraph graph = make_graph(edges, n);
  core::CcResult result = baselines::reference_cc(graph);
  return std::vector<Label>(result.label_span().begin(),
                            result.label_span().end());
}

void expect_matches_reference(const ConnectivityService& service,
                              const EdgeList& all_edges, VertexId n) {
  const SnapshotPtr snapshot = service.snapshot();
  const std::vector<Label> reference = reference_labels(all_edges, n);
  EXPECT_TRUE(core::same_partition(snapshot->labels(), reference));
}

TEST(Service, InitialSolveMatchesReference) {
  const EdgeList edges = {{0, 1}, {1, 2}, {4, 5}};
  ConnectivityService service(make_graph(edges, 8));
  EXPECT_EQ(service.num_vertices(), 8u);
  EXPECT_EQ(service.component_count(), 5u);  // {0,1,2} {4,5} 3 6 7
  EXPECT_TRUE(service.same_component(0, 2));
  EXPECT_FALSE(service.same_component(0, 4));
  EXPECT_EQ(service.component_size(1), 3u);
  EXPECT_EQ(service.component_size(7), 1u);
  expect_matches_reference(service, edges, 8);
  EXPECT_TRUE(service.verify_against_reference());
}

TEST(Service, LabelsAreCanonicalMinimumIds) {
  const EdgeList edges = {{3, 7}, {7, 2}, {5, 6}};
  ConnectivityService service(make_graph(edges, 8));
  const SnapshotPtr snapshot = service.snapshot();
  EXPECT_EQ(snapshot->labels()[7], 2u);
  EXPECT_EQ(snapshot->labels()[3], 2u);
  EXPECT_EQ(snapshot->labels()[6], 5u);
  EXPECT_EQ(snapshot->labels()[0], 0u);
}

TEST(Service, IngestBatchesMatchReferenceAfterEveryBatch) {
  // A path grown batch by batch; after each batch the published
  // partition must equal a from-scratch reference on the union.
  const VertexId n = 64;
  EdgeList all = {{0, 1}};
  ConnectivityService service(make_graph(all, n));

  std::vector<EdgeList> batches;
  for (VertexId v = 1; v + 1 < n; v += 4) {
    EdgeList batch;
    for (VertexId u = v; u < v + 4 && u + 1 < n; ++u) {
      batch.push_back({u, u + 1});
    }
    batches.push_back(std::move(batch));
  }
  std::uint64_t previous_count = service.component_count();
  for (const EdgeList& batch : batches) {
    const IngestReport report = service.ingest_batch(batch);
    all.insert(all.end(), batch.begin(), batch.end());
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_EQ(report.merges, previous_count - service.component_count());
    previous_count = service.component_count();
    expect_matches_reference(service, all, n);
  }
  EXPECT_EQ(service.component_count(), 1u);
  EXPECT_TRUE(service.same_component(0, n - 1));
}

TEST(Service, RecompactionPreservesThePartition) {
  const VertexId n = 32;
  EdgeList all = {{0, 1}, {2, 3}};
  ConnectivityService service(make_graph(all, n));
  const EdgeList batch = {{1, 2}, {10, 11}, {11, 12}};
  (void)service.ingest_batch(batch);
  all.insert(all.end(), batch.begin(), batch.end());

  const SnapshotPtr before = service.snapshot();
  const std::uint64_t epoch = service.recompact();
  const SnapshotPtr after = service.snapshot();
  EXPECT_GT(epoch, before->epoch());
  EXPECT_TRUE(core::same_partition(before->labels(), after->labels()));
  expect_matches_reference(service, all, n);
  EXPECT_EQ(service.stats().pending_edges, 0u);
  EXPECT_TRUE(service.verify_against_reference());
}

TEST(Service, SnapshotIsolationAcrossEpochSwap) {
  const VertexId n = 16;
  ConnectivityService service(make_graph({{0, 1}}, n));
  const SnapshotPtr pinned = service.snapshot();
  const std::uint64_t pinned_epoch = pinned->epoch();
  ASSERT_FALSE(pinned->same_component(0, 2));
  const std::uint64_t old_count = pinned->component_count();

  (void)service.ingest_batch(std::vector<Edge>{{1, 2}, {2, 3}});
  (void)service.recompact();

  // The pinned snapshot still answers from its own epoch.
  EXPECT_EQ(pinned->epoch(), pinned_epoch);
  EXPECT_FALSE(pinned->same_component(0, 2));
  EXPECT_EQ(pinned->component_count(), old_count);
  // A fresh pin sees the merged world.
  const SnapshotPtr fresh = service.snapshot();
  EXPECT_GT(fresh->epoch(), pinned_epoch);
  EXPECT_TRUE(fresh->same_component(0, 3));
}

TEST(Service, EmptyGraphAndSingleVertex) {
  ConnectivityService empty(make_graph({}, 0));
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.component_count(), 0u);
  EXPECT_TRUE(empty.top_components(4).empty());
  const IngestReport report =
      empty.ingest_batch(std::vector<Edge>{{0, 1}});
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_EQ(report.rejected, 1u);
  const std::uint64_t epoch = empty.recompact();
  EXPECT_EQ(epoch, empty.snapshot()->epoch());
  EXPECT_TRUE(empty.verify_against_reference());

  ConnectivityService single(make_graph({}, 1));
  EXPECT_EQ(single.component_count(), 1u);
  EXPECT_TRUE(single.same_component(0, 0));
  EXPECT_EQ(single.component_size(0), 1u);
  const IngestReport loop =
      single.ingest_batch(std::vector<Edge>{{0, 0}});
  EXPECT_EQ(loop.self_loops, 1u);
  EXPECT_EQ(loop.merges, 0u);
  EXPECT_EQ(single.component_count(), 1u);
  EXPECT_TRUE(single.verify_against_reference());
}

TEST(Service, RejectsOutOfRangeEndpoints) {
  ConnectivityService service(make_graph({{0, 1}}, 4));
  const IngestReport report = service.ingest_batch(
      std::vector<Edge>{{2, 3}, {3, 99}, {100, 200}});
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_TRUE(service.same_component(2, 3));
  EXPECT_EQ(service.stats().rejected_edges, 2u);
}

TEST(Service, StalenessThresholdTriggersRecompaction) {
  ServeOptions options;
  options.staleness_edges = 4;  // recompact once 4 edges accumulate
  ConnectivityService service(make_graph({{0, 1}}, 32), options);

  IngestReport report = service.ingest_batch(
      std::vector<Edge>{{1, 2}, {3, 4}});
  EXPECT_FALSE(report.recompacted);
  EXPECT_EQ(service.stats().pending_edges, 2u);
  report = service.ingest_batch(std::vector<Edge>{{4, 5}, {6, 7}});
  EXPECT_TRUE(report.recompacted);
  EXPECT_EQ(service.stats().pending_edges, 0u);
  EXPECT_EQ(service.stats().recompactions, 1u);
  // Folded into the base CSR, the edges keep answering.
  EXPECT_TRUE(service.same_component(0, 2));
  EXPECT_TRUE(service.same_component(6, 7));
}

TEST(Service, AutoRecompactionOffLeavesOverlayPending) {
  ServeOptions options;
  options.staleness_edges = 1;
  options.auto_recompact = false;
  ConnectivityService service(make_graph({{0, 1}}, 8), options);
  const IngestReport report = service.ingest_batch(
      std::vector<Edge>{{1, 2}, {2, 3}});
  EXPECT_FALSE(report.recompacted);
  EXPECT_EQ(service.stats().pending_edges, 2u);
  EXPECT_TRUE(service.same_component(0, 3));
}

TEST(Service, TopComponentsOrderedBySize) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 3},   // size 4, label 0
                          {5, 6}, {6, 7}};          // size 3, label 5
  ConnectivityService service(make_graph(edges, 9));
  const auto top = service.top_components(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (ComponentInfo{0, 4}));
  EXPECT_EQ(top[1], (ComponentInfo{5, 3}));
  // Asking for more than exist returns them all (4 + 3 + two singles).
  EXPECT_EQ(service.top_components(100).size(), 4u);
}

// --- Protocol ---

Response run_command(ConnectivityService& service, const std::string& line) {
  std::istringstream in;
  return handle_command(service, line, in);
}

TEST(Protocol, QueryCommands) {
  ConnectivityService service(make_graph({{0, 1}, {2, 3}}, 6));
  EXPECT_EQ(run_command(service, "same 0 1").text, "OK 1");
  EXPECT_EQ(run_command(service, "same 0 2").text, "OK 0");
  EXPECT_EQ(run_command(service, "size 3").text, "OK 2");
  EXPECT_EQ(run_command(service, "count").text, "OK 4");
  const Response top = run_command(service, "top 2");
  EXPECT_TRUE(top.ok);
  EXPECT_EQ(top.text, "OK 2\n0 2\n2 2");
}

TEST(Protocol, MutatingCommands) {
  // A 1-edge base would trip the default staleness trigger on every
  // add; raise it so the responses show the plain ingest path.
  ServeOptions lazy;
  lazy.staleness_edges = 1000;
  ConnectivityService service(make_graph({{0, 1}}, 8), lazy);
  const Response add = run_command(service, "add 1 2 6 7");
  EXPECT_TRUE(add.ok);
  EXPECT_EQ(add.text,
            "OK accepted=2 rejected=0 merges=2 epoch=1 recompacted=0");
  EXPECT_EQ(run_command(service, "same 0 2").text, "OK 1");

  std::istringstream follow_up("3 4\n4 5\n");
  const Response ingest = handle_command(service, "ingest 2", follow_up);
  EXPECT_TRUE(ingest.ok);
  EXPECT_EQ(run_command(service, "same 3 5").text, "OK 1");

  const Response recompact = run_command(service, "recompact");
  EXPECT_TRUE(recompact.ok);
  EXPECT_EQ(recompact.text, "OK epoch=3 components=3");
  const Response verify = run_command(service, "verify");
  EXPECT_TRUE(verify.ok);
  EXPECT_EQ(verify.text, "OK verified components=3");
}

TEST(Protocol, ErrorsAreNonFatal) {
  ConnectivityService service(make_graph({{0, 1}}, 4));
  EXPECT_FALSE(run_command(service, "same 0").ok);        // arity
  EXPECT_FALSE(run_command(service, "same 0 99").ok);     // range
  EXPECT_FALSE(run_command(service, "same 0 x").ok);      // parse
  EXPECT_FALSE(run_command(service, "frobnicate").ok);    // unknown
  EXPECT_FALSE(run_command(service, "add 1").ok);         // odd pair
  std::istringstream truncated("0 1\n");
  EXPECT_FALSE(handle_command(service, "ingest 2", truncated).ok);
  // The service keeps answering after every error.
  EXPECT_EQ(run_command(service, "same 0 1").text, "OK 1");
}

TEST(Protocol, SessionDrivesCommandsAndCountsErrors) {
  ServeOptions lazy;
  lazy.staleness_edges = 1000;
  ConnectivityService service(make_graph({{0, 1}}, 4), lazy);
  std::istringstream in(
      "# comment line\n"
      "\n"
      "count\n"
      "bogus\n"
      "add 1 2\n"
      "same 0 2\n"
      "quit\n"
      "never reached\n");
  std::ostringstream out;
  const std::uint64_t errors = serve_session(service, in, out);
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(out.str(),
            "OK 3\n"
            "ERR unknown command 'bogus' (try: help)\n"
            "OK accepted=1 rejected=0 merges=1 epoch=1 recompacted=0\n"
            "OK 1\n"
            "OK bye\n");
}

TEST(Protocol, OverlongLinesAnswerErrAndTheSessionGoesOn) {
  ServeOptions lazy;
  lazy.staleness_edges = 1000;
  ConnectivityService service(make_graph({{0, 1}}, 4), lazy);
  const std::string overlong(kMaxLineBytes + 1, '7');
  std::istringstream in("count\n" + overlong + "\n" +
                        "ingest 2\n1 2\n" + overlong + "\n" +
                        "same 0 2\n");
  std::ostringstream out;
  EXPECT_EQ(serve_session(service, in, out), 2u);
  EXPECT_EQ(out.str(),
            "OK 3\n"
            "ERR line too long\n"
            "ERR line too long\n"
            "OK 0\n");

  // A line of exactly the cap is still read as one command.
  std::string padded = "count";
  padded.resize(kMaxLineBytes, ' ');
  std::istringstream exact(padded + "\n");
  std::ostringstream answer;
  EXPECT_EQ(serve_session(service, exact, answer), 0u);
  EXPECT_EQ(answer.str(), "OK 3\n");
}

/// Caps the process's address space at its current size plus
/// `headroom` bytes, so any larger allocation fails.  False if the
/// current size is unreadable or the cap cannot be set.
bool cap_address_space(std::uint64_t headroom) {
  std::ifstream status("/proc/self/status");
  std::uint64_t vm_kib = 0;
  for (std::string key; status >> key;) {
    if (key == "VmSize:") {
      status >> vm_kib;
      break;
    }
  }
  const rlim_t cap = vm_kib * 1024 + headroom;
  const rlimit limit{cap, cap};
  return vm_kib > 0 && setrlimit(RLIMIT_AS, &limit) == 0;
}

// Regression: `ingest N` used to reserve N edges (2 GiB for the largest
// N) before one edge line arrived, so a client announcing a huge batch
// and hanging up threw bad_alloc out of the session.
TEST(ProtocolDeathTest, HugeIngestCountThenEofAnswersErr) {
  EXPECT_EXIT(
      {
        ConnectivityService service(make_graph({{0, 1}}, 4));
        if (!cap_address_space(std::uint64_t{256} << 20)) std::exit(2);
        std::istringstream in("ingest 268435456\n");
        std::ostringstream out;
        const std::uint64_t errors = serve_session(service, in, out);
        std::exit(errors == 1 && out.str().rfind("ERR ", 0) == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// --- Concurrency: the TSan target. ---

// ≥4 reader threads continuously pin snapshots and query while one
// ingest thread pushes batches and recompacts.  Readers assert
// invariants that hold within any single snapshot regardless of
// concurrent writes: canonical labels, monotone non-increasing
// component counts across epochs, and query/label agreement.
TEST(ServiceStress, ConcurrentQueriesDuringIngest) {
  const VertexId n = 512;
  EdgeList initial;
  for (VertexId v = 0; v + 1 < n / 2; ++v) {
    initial.push_back({v, v + 1});
  }
  ServeOptions options;
  options.staleness_edges = 64;  // several recompactions during the run
  ConnectivityService service(make_graph(initial, n), options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &done, &queries, t, n] {
      std::uint64_t previous_epoch = 0;
      std::uint64_t previous_count = ~0ull;
      std::uint64_t local = 0;
      VertexId u = static_cast<VertexId>(t);
      while (!done.load(std::memory_order_relaxed)) {
        const SnapshotPtr snapshot = service.snapshot();
        // Ingest only merges: later epochs cannot gain components.
        if (snapshot->epoch() >= previous_epoch) {
          previous_epoch = snapshot->epoch();
          ASSERT_LE(snapshot->component_count(), previous_count);
          previous_count = snapshot->component_count();
        }
        const VertexId v = (u * 2654435761u) % n;
        ASSERT_EQ(snapshot->same_component(v, v ^ 1u),
                  snapshot->labels()[v] == snapshot->labels()[v ^ 1u]);
        ASSERT_LE(snapshot->labels()[v], v);  // canonical: min id
        ASSERT_GE(snapshot->component_size(v), 1u);
        u = (u + 1) % n;
        local += 4;
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::thread writer([&service, n] {
    // Stitch the second half onto the first, batch by batch.
    for (VertexId v = n / 2; v + 1 < n; v += 8) {
      EdgeList batch = {{static_cast<VertexId>(v % (n / 2)), v}};
      for (VertexId u = v; u < v + 8 && u + 1 < n; ++u) {
        batch.push_back({u, u + 1});
      }
      const IngestReport report = service.ingest_batch(batch);
      ASSERT_EQ(report.rejected, 0u);
    }
    (void)service.recompact();
  });

  writer.join();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(service.component_count(), 1u);
  EXPECT_GE(service.stats().recompactions, 1u);
  EXPECT_TRUE(service.verify_against_reference());
}

}  // namespace
}  // namespace thrifty::serve
