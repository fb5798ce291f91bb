// Long-lived connectivity service: the static+incremental split of
// ConnectIt (Dhulipala et al.) on top of the Thrifty solver.
//
// A ConnectivityService owns a loaded graph (heap-built or zero-copy
// mmap — any CsrGraph) and a canonicalised per-vertex label array, and
// answers connectivity queries from immutable *snapshots* while
// absorbing batched edge insertions:
//
//   * Static solves (construction and every recompaction) run full
//     Thrifty over the accumulated graph.
//   * Incremental ingest applies each batch to a private union-find
//     forest with the concurrent min-hooking primitives of
//     cc_baselines/concurrent_hook.hpp (hook::link + hook::compress),
//     then publishes a fresh snapshot.  Because the forest starts from
//     canonical labels (every root the minimum vertex id of its class)
//     and min-hooking always points the larger root at the smaller,
//     the compressed forest is itself canonical — no relabelling pass
//     is needed between ingest and publication.  Component sizes live
//     in a dense per-root array beside the forest: each old root the
//     batch hooked away hands its size to its new root, so keeping the
//     sizes and the component count exact costs O(batch), and
//     publication is two n-sized copies.
//   * A staleness threshold (inserted edges since the last static
//     solve) triggers periodic full recompaction: the overlay is folded
//     into the CSR via the counting-sort builder and Thrifty re-solves,
//     restoring the static solve's locality and shedding the overlay.
//
// Concurrency model (RCU-style epoch swap): readers never block the
// writer and the writer never blocks readers.  The current snapshot is
// a std::shared_ptr<const Snapshot> held in an atomic slot; readers pin
// an epoch with one atomic shared_ptr load (acquire) and keep a
// consistent partition for as long as they hold the pointer, while the
// writer publishes each new epoch with an atomic store (release) after
// finishing all forest writes.  That store/load pair is the only
// synchronisation between writers and readers — see the ordering
// contract in concurrent_hook.hpp.  Writer-side calls (ingest_batch,
// recompact) are serialised internally with a mutex, so any thread may
// issue them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/cc_common.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace thrifty::serve {

struct ServeOptions {
  /// Recompact when pending inserted edges exceed this fraction of the
  /// base graph's undirected edge count (ConnectIt-style periodic
  /// rebuild; 25% keeps the overlay small relative to the CSR).
  double staleness_fraction = 0.25;
  /// Absolute pending-edge trigger; 0 derives the trigger from
  /// staleness_fraction.  Set to 1 to force a full static solve after
  /// every batch (the pre-service behaviour, kept for benchmarking).
  std::uint64_t staleness_edges = 0;
  /// When false, ingest never recompacts on its own; callers drive
  /// recompact() explicitly.
  bool auto_recompact = true;
  /// Options forwarded to the static Thrifty solves.
  core::CcOptions cc;
};

/// One component in a top_components listing.
struct ComponentInfo {
  graph::Label label = 0;
  std::uint64_t size = 0;

  friend bool operator==(const ComponentInfo&,
                         const ComponentInfo&) = default;
};

/// An immutable connectivity epoch: canonical labels plus a dense
/// per-root size array and the component count.  Snapshots are never
/// mutated after publication, so any number of readers may query one
/// concurrently, and a reader holding a pinned snapshot keeps answering
/// from the same consistent partition regardless of concurrent ingest.
class Snapshot {
 public:
  /// Counts the sizes from the labels.  Precondition: the labels are
  /// canonical (labels[v] is the smallest vertex id of v's component).
  Snapshot(std::uint64_t epoch, std::vector<graph::Label> labels);
  /// Takes sizes the caller kept: sizes[r] is the size of the component
  /// rooted at r and 0 where r is no root; `count` roots are nonzero.
  Snapshot(std::uint64_t epoch, std::vector<graph::Label> labels,
           std::vector<std::uint32_t> sizes, std::uint64_t count);

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] graph::VertexId num_vertices() const {
    return static_cast<graph::VertexId>(labels_.size());
  }
  [[nodiscard]] std::span<const graph::Label> labels() const {
    return labels_;
  }

  /// Preconditions: u, v < num_vertices().
  [[nodiscard]] bool same_component(graph::VertexId u,
                                    graph::VertexId v) const;
  [[nodiscard]] std::uint64_t component_size(graph::VertexId v) const;
  [[nodiscard]] std::uint64_t component_count() const { return count_; }
  /// The k largest components, size-descending with ties by smaller
  /// label (fewer when the graph has fewer components).  O(n): a scan
  /// of the size array and a partial sort of its roots.
  [[nodiscard]] std::vector<ComponentInfo> top_components(
      std::uint64_t k) const;

 private:
  std::uint64_t epoch_;
  /// Canonical: labels_[v] is the smallest vertex id in v's component.
  std::vector<graph::Label> labels_;
  /// sizes_[r]: size of the component rooted at r, 0 for non-roots.
  std::vector<std::uint32_t> sizes_;
  std::uint64_t count_ = 0;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Outcome of one ingest_batch call.
struct IngestReport {
  /// Edges applied to the forest (in-range, non-self-loop).
  std::uint64_t accepted = 0;
  /// Edges dropped for out-of-range endpoints.
  std::uint64_t rejected = 0;
  /// Self loops (accepted trivially; never change connectivity).
  std::uint64_t self_loops = 0;
  /// Components merged away by this batch.
  std::uint64_t merges = 0;
  /// Whether this batch tripped the staleness threshold and ran a full
  /// Thrifty recompaction.
  bool recompacted = false;
  /// Epoch of the snapshot published for this batch.
  std::uint64_t epoch = 0;
};

struct ServiceStats {
  std::uint64_t epoch = 0;
  std::uint64_t recompactions = 0;
  std::uint64_t ingested_edges = 0;
  std::uint64_t rejected_edges = 0;
  /// Overlay size: accepted edges not yet folded into the CSR.
  std::uint64_t pending_edges = 0;
  /// Undirected edge count of the base CSR (last recompaction).
  std::uint64_t base_edges = 0;
  std::uint64_t components = 0;
  graph::VertexId num_vertices = 0;
};

class ConnectivityService {
 public:
  /// Takes ownership of the graph (a zero-copy mmap view works — the
  /// service only reads it) and runs the initial static solve.  The
  /// graph fixes the vertex id space; inserted edges must stay within
  /// [0, num_vertices).
  explicit ConnectivityService(graph::CsrGraph graph,
                               ServeOptions options = {});

  // --- Read path: wait-free with respect to the writer. ---

  /// Pins the current epoch.  One atomic shared_ptr load; the returned
  /// snapshot stays valid and immutable for as long as it is held.
  [[nodiscard]] SnapshotPtr snapshot() const;

  // Convenience single-query forms (pin + query + unpin).
  [[nodiscard]] bool same_component(graph::VertexId u,
                                    graph::VertexId v) const;
  [[nodiscard]] std::uint64_t component_size(graph::VertexId v) const;
  [[nodiscard]] std::uint64_t component_count() const;
  [[nodiscard]] std::vector<ComponentInfo> top_components(
      std::uint64_t k) const;

  [[nodiscard]] graph::VertexId num_vertices() const {
    return num_vertices_;
  }

  // --- Write path: serialised internally; any thread may call. ---

  /// Applies one batch of undirected edges via parallel hooks and
  /// publishes a new snapshot.  Out-of-range endpoints are counted and
  /// dropped, never fatal — a resident service must survive bad input.
  IngestReport ingest_batch(std::span<const graph::Edge> edges);

  /// Forces a full Thrifty recompaction (overlay folded into the CSR,
  /// static re-solve, fresh snapshot).  Returns the published epoch.
  std::uint64_t recompact();

  [[nodiscard]] ServiceStats stats() const;

  /// The accumulated undirected edge list (base CSR + overlay), for
  /// from-scratch cross-checks against an oracle solver.
  [[nodiscard]] graph::EdgeList accumulated_edges() const;

  /// From-scratch cross-check: solves the accumulated graph with the
  /// sequential union-find reference and compares partitions with the
  /// current snapshot.  Edge list and snapshot are captured atomically
  /// with respect to writers, so the check is exact even under
  /// concurrent ingest from other threads.
  [[nodiscard]] bool verify_against_reference() const;

 private:
  /// Re-derives base_ from accumulated edges, re-solves with Thrifty,
  /// resets the forest.  Caller holds writer_mutex_.
  void recompact_locked();
  /// Recounts sizes_ and components_ from the canonical forest_.
  /// Caller holds writer_mutex_.
  void reset_sizes_locked();
  /// Publishes forest_ and sizes_ as the next epoch.  Caller holds
  /// writer_mutex_.
  void publish_locked();
  [[nodiscard]] graph::EdgeList accumulated_edges_locked() const;
  [[nodiscard]] std::uint64_t staleness_trigger_locked() const;

  ServeOptions options_;
  graph::VertexId num_vertices_ = 0;

  /// Writer state, guarded by writer_mutex_: the base CSR of the last
  /// static solve, the overlay of edges inserted since, the private
  /// union-find forest (canonical between calls; readers never see it)
  /// and its per-root sizes and component count, exact between calls.
  mutable std::mutex writer_mutex_;
  graph::CsrGraph base_;
  graph::EdgeList overlay_;
  core::LabelArray forest_;
  std::vector<std::uint32_t> sizes_;
  std::uint64_t components_ = 0;
  std::uint64_t next_epoch_ = 0;
  std::uint64_t recompactions_ = 0;
  std::uint64_t ingested_edges_ = 0;
  std::uint64_t rejected_edges_ = 0;

  /// The RCU slot.  Writer: store(release) after all forest writes.
  /// Readers: load(acquire) pins an epoch.
  std::atomic<SnapshotPtr> current_;
};

}  // namespace thrifty::serve
