#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "cc_baselines/concurrent_hook.hpp"
#include "cc_baselines/reference_cc.hpp"
#include "core/thrifty.hpp"
#include "graph/builder.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace thrifty::serve {

using graph::Edge;
using graph::EdgeList;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Snapshot

namespace {

/// Fills sizes[r] with the size of the class rooted at r (0 where r is
/// no root) and returns the number of classes.  Precondition: the
/// labels are canonical, so every label is below labels.size().
std::uint64_t count_sizes(std::span<const Label> labels,
                          std::vector<std::uint32_t>& sizes) {
  sizes.assign(labels.size(), 0);
  std::uint64_t count = 0;
  for (const Label l : labels) {
    THRIFTY_EXPECTS(l < labels.size());
    if (sizes[l]++ == 0) ++count;
  }
  return count;
}

}  // namespace

Snapshot::Snapshot(std::uint64_t epoch, std::vector<Label> labels)
    : epoch_(epoch), labels_(std::move(labels)) {
  count_ = count_sizes(labels_, sizes_);
}

Snapshot::Snapshot(std::uint64_t epoch, std::vector<Label> labels,
                   std::vector<std::uint32_t> sizes, std::uint64_t count)
    : epoch_(epoch),
      labels_(std::move(labels)),
      sizes_(std::move(sizes)),
      count_(count) {
  THRIFTY_EXPECTS(sizes_.size() == labels_.size());
}

bool Snapshot::same_component(VertexId u, VertexId v) const {
  THRIFTY_EXPECTS(u < labels_.size() && v < labels_.size());
  return labels_[u] == labels_[v];
}

std::uint64_t Snapshot::component_size(VertexId v) const {
  THRIFTY_EXPECTS(v < labels_.size());
  return sizes_[labels_[v]];
}

std::vector<ComponentInfo> Snapshot::top_components(std::uint64_t k) const {
  std::vector<ComponentInfo> roots;
  roots.reserve(count_);
  for (std::size_t r = 0; r < sizes_.size(); ++r) {
    if (sizes_[r] != 0) roots.push_back({static_cast<Label>(r), sizes_[r]});
  }
  const auto top =
      static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(k, roots.size()));
  std::partial_sort(roots.begin(), roots.begin() + top, roots.end(),
                    [](const ComponentInfo& a, const ComponentInfo& b) {
                      return a.size != b.size ? a.size > b.size
                                              : a.label < b.label;
                    });
  roots.resize(static_cast<std::size_t>(top));
  return roots;
}

// ---------------------------------------------------------------------------
// ConnectivityService

ConnectivityService::ConnectivityService(graph::CsrGraph graph,
                                         ServeOptions options)
    : options_(options),
      num_vertices_(graph.num_vertices()),
      base_(std::move(graph)),
      forest_(core::make_label_array(num_vertices_)) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  // The initial static solve is a recompaction with an empty overlay,
  // minus the CSR rebuild (base_ is already the accumulated graph).
  const core::CcResult solved = core::thrifty_cc(base_, options_.cc);
  const std::vector<Label> canonical =
      core::canonical_labels(solved.label_span());
  core::copy_labels(canonical, {forest_.data(), forest_.size()});
  reset_sizes_locked();
  publish_locked();
}

SnapshotPtr ConnectivityService::snapshot() const {
  return current_.load(std::memory_order_acquire);
}

bool ConnectivityService::same_component(VertexId u, VertexId v) const {
  return snapshot()->same_component(u, v);
}

std::uint64_t ConnectivityService::component_size(VertexId v) const {
  return snapshot()->component_size(v);
}

std::uint64_t ConnectivityService::component_count() const {
  return snapshot()->component_count();
}

std::vector<ComponentInfo> ConnectivityService::top_components(
    std::uint64_t k) const {
  return snapshot()->top_components(k);
}

IngestReport ConnectivityService::ingest_batch(
    std::span<const Edge> edges) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  IngestReport report;

  EdgeList accepted;
  accepted.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u >= num_vertices_ || e.v >= num_vertices_) {
      ++report.rejected;
    } else if (e.u == e.v) {
      ++report.self_loops;  // trivially connected; nothing to hook
    } else {
      accepted.push_back(e);
    }
  }
  report.accepted = accepted.size();
  ingested_edges_ += report.accepted;
  rejected_edges_ += report.rejected;

  if (accepted.empty()) {
    // Nothing changed connectivity; keep the current epoch.
    report.epoch = snapshot()->epoch();
    return report;
  }

  // Parallel min-hooking of the batch into the private forest.  The
  // forest is canonical at rest and min-hooking keeps roots at class
  // minima, so after the compress sweep it is canonical again — ready
  // to publish without a relabelling pass.  A batch below the serial
  // cutoff links on the calling thread.
  const auto batch = static_cast<std::int64_t>(accepted.size());
#pragma omp parallel for num_threads(support::threads_for(accepted.size())) \
    schedule(dynamic, 256)
  for (std::int64_t i = 0; i < batch; ++i) {
    baselines::hook::link(accepted[static_cast<std::size_t>(i)].u,
                          accepted[static_cast<std::size_t>(i)].v, forest_);
  }
  baselines::hook::compress(forest_, num_vertices_);

  // Every class the batch merged holds an endpoint, so the endpoints'
  // old roots (the published labels) include every root hooked away.
  // The compressed forest names each one's new root, which was an old
  // root itself and keeps its size entry; zeroing the moved size makes
  // a second visit of the same old root a no-op.
  const std::uint64_t components_before = components_;
  const SnapshotPtr before = snapshot();
  const std::span<const Label> old_labels = before->labels();
  const auto hand_over = [&](VertexId x) {
    const Label old_root = old_labels[x];
    const Label root = forest_[old_root];
    if (root != old_root && sizes_[old_root] != 0) {
      sizes_[root] += sizes_[old_root];
      sizes_[old_root] = 0;
      --components_;
    }
  };
  for (const Edge& e : accepted) {
    hand_over(e.u);
    hand_over(e.v);
  }

  overlay_.insert(overlay_.end(), accepted.begin(), accepted.end());

  if (options_.auto_recompact &&
      overlay_.size() >= staleness_trigger_locked()) {
    recompact_locked();
    report.recompacted = true;
  } else {
    publish_locked();
  }

  report.epoch = snapshot()->epoch();
  report.merges = components_before - components_;
  return report;
}

std::uint64_t ConnectivityService::recompact() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  recompact_locked();
  return snapshot()->epoch();
}

void ConnectivityService::recompact_locked() {
  // Fold the overlay into the CSR (counting-sort rebuild, ids stay
  // stable: no zero-degree compaction) and re-run the static solver.
  graph::BuildOptions build;
  build.remove_zero_degree_vertices = false;
  base_ = graph::build_csr(accumulated_edges_locked(), num_vertices_, build)
              .graph;
  overlay_.clear();
  const core::CcResult solved = core::thrifty_cc(base_, options_.cc);
  const std::vector<Label> canonical =
      core::canonical_labels(solved.label_span());
  core::copy_labels(canonical, {forest_.data(), forest_.size()});
  reset_sizes_locked();
  ++recompactions_;
  publish_locked();
}

void ConnectivityService::reset_sizes_locked() {
  components_ = count_sizes({forest_.data(), forest_.size()}, sizes_);
}

void ConnectivityService::publish_locked() {
  std::vector<Label> labels(forest_.size());
  core::copy_labels({forest_.data(), forest_.size()}, labels);
  // The release store pairs with the acquire load in snapshot(): every
  // forest and size write above happens-before any reader's use of
  // this epoch.
  current_.store(std::make_shared<const Snapshot>(
                     next_epoch_++, std::move(labels), sizes_, components_),
                 std::memory_order_release);
}

std::uint64_t ConnectivityService::staleness_trigger_locked() const {
  if (options_.staleness_edges > 0) return options_.staleness_edges;
  const auto derived = static_cast<std::uint64_t>(
      options_.staleness_fraction *
      static_cast<double>(base_.num_undirected_edges()));
  return std::max<std::uint64_t>(derived, 1);
}

EdgeList ConnectivityService::accumulated_edges_locked() const {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(base_.num_undirected_edges()) +
                overlay_.size());
  for (VertexId v = 0; v < base_.num_vertices(); ++v) {
    for (const VertexId u : base_.neighbors(v)) {
      if (u >= v) edges.push_back({v, u});
    }
  }
  edges.insert(edges.end(), overlay_.begin(), overlay_.end());
  return edges;
}

EdgeList ConnectivityService::accumulated_edges() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  return accumulated_edges_locked();
}

bool ConnectivityService::verify_against_reference() const {
  EdgeList edges;
  SnapshotPtr snap;
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    edges = accumulated_edges_locked();
    snap = snapshot();
  }
  graph::BuildOptions build;
  build.remove_zero_degree_vertices = false;
  const graph::CsrGraph accumulated =
      graph::build_csr(edges, num_vertices_, build).graph;
  const core::CcResult reference = baselines::reference_cc(accumulated);
  return core::same_partition(snap->labels(), reference.label_span());
}

ServiceStats ConnectivityService::stats() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  ServiceStats stats;
  const SnapshotPtr now = snapshot();
  stats.epoch = now->epoch();
  stats.recompactions = recompactions_;
  stats.ingested_edges = ingested_edges_;
  stats.rejected_edges = rejected_edges_;
  stats.pending_edges = overlay_.size();
  stats.base_edges = base_.num_undirected_edges();
  stats.components = components_;
  stats.num_vertices = num_vertices_;
  return stats;
}

}  // namespace thrifty::serve
