#include "graph/csr_graph.hpp"

#include <algorithm>
#include <utility>

#include "support/parallel.hpp"

namespace thrifty::graph {

void CsrGraph::rebind_views() {
  if (keep_alive_ != nullptr) return;  // views already point at storage
  offsets_ = {offsets_storage_.data(), offsets_storage_.size()};
  neighbors_ = {neighbors_storage_.data(), neighbors_storage_.size()};
}

void CsrGraph::check_invariants_and_count_loops() {
  THRIFTY_EXPECTS(!offsets_.empty());
  THRIFTY_EXPECTS(offsets_.front() == 0);
  THRIFTY_EXPECTS(offsets_.back() == neighbors_.size());
  const VertexId n = num_vertices();
  EdgeOffset loops = 0;
#pragma omp parallel for num_threads(support::threads_for( \
    n + neighbors_.size())) schedule(static) reduction(+ : loops)
  for (VertexId v = 0; v < n; ++v) {
    THRIFTY_EXPECTS(offsets_[v] <= offsets_[v + 1]);
    for (EdgeOffset e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      THRIFTY_EXPECTS(neighbors_[e] < n);
      loops += (neighbors_[e] == v) ? 1 : 0;
    }
  }
  self_loops_ = loops;
}

CsrGraph::CsrGraph(support::UninitVector<EdgeOffset> offsets,
                   support::UninitVector<VertexId> neighbors)
    : offsets_storage_(std::move(offsets)),
      neighbors_storage_(std::move(neighbors)) {
  rebind_views();
  check_invariants_and_count_loops();
}

CsrGraph::CsrGraph(std::span<const EdgeOffset> offsets,
                   std::span<const VertexId> neighbors,
                   std::shared_ptr<const void> keep_alive)
    : keep_alive_(std::move(keep_alive)),
      offsets_(offsets),
      neighbors_(neighbors) {
  THRIFTY_EXPECTS(keep_alive_ != nullptr);
  check_invariants_and_count_loops();
}

CsrGraph::CsrGraph(const CsrGraph& other)
    : offsets_storage_(other.offsets_storage_),
      neighbors_storage_(other.neighbors_storage_),
      keep_alive_(other.keep_alive_),
      offsets_(other.offsets_),
      neighbors_(other.neighbors_),
      self_loops_(other.self_loops_) {
  rebind_views();
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this == &other) return *this;
  offsets_storage_ = other.offsets_storage_;
  neighbors_storage_ = other.neighbors_storage_;
  keep_alive_ = other.keep_alive_;
  offsets_ = other.offsets_;
  neighbors_ = other.neighbors_;
  self_loops_ = other.self_loops_;
  rebind_views();
  return *this;
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept
    : offsets_storage_(std::move(other.offsets_storage_)),
      neighbors_storage_(std::move(other.neighbors_storage_)),
      keep_alive_(std::move(other.keep_alive_)),
      offsets_(other.offsets_),
      neighbors_(other.neighbors_),
      self_loops_(other.self_loops_) {
  // Vector moves transfer the heap buffer, so the source's views remain
  // valid for the destination; rebind anyway to stay independent of that
  // guarantee, and reset the source to the empty state.
  rebind_views();
  other.offsets_ = {};
  other.neighbors_ = {};
  other.self_loops_ = 0;
}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this == &other) return *this;
  offsets_storage_ = std::move(other.offsets_storage_);
  neighbors_storage_ = std::move(other.neighbors_storage_);
  keep_alive_ = std::move(other.keep_alive_);
  offsets_ = other.offsets_;
  neighbors_ = other.neighbors_;
  self_loops_ = other.self_loops_;
  rebind_views();
  other.offsets_ = {};
  other.neighbors_ = {};
  other.self_loops_ = 0;
  return *this;
}

VertexId CsrGraph::max_degree_vertex() const {
  THRIFTY_EXPECTS(!empty());
  const VertexId n = num_vertices();
  // Per-thread maxima, combined serially — Lines 5-8 of Algorithm 2.
  const int threads = support::threads_for(n);
  std::vector<EdgeOffset> max_degrees(static_cast<std::size_t>(threads), 0);
  std::vector<VertexId> max_ids(static_cast<std::size_t>(threads), 0);
#pragma omp parallel num_threads(threads)
  {
    const auto t = static_cast<std::size_t>(support::thread_id());
    EdgeOffset best_degree = 0;
    VertexId best_id = 0;
    bool seen = false;
#pragma omp for schedule(static) nowait
    for (VertexId v = 0; v < n; ++v) {
      const EdgeOffset d = offsets_[v + 1] - offsets_[v];
      if (!seen || d > best_degree) {
        best_degree = d;
        best_id = v;
        seen = true;
      }
    }
    if (seen) {
      max_degrees[t] = best_degree;
      max_ids[t] = best_id;
    } else {
      max_ids[t] = n;  // sentinel: thread saw no vertices
    }
  }
  EdgeOffset best_degree = 0;
  VertexId best_id = 0;
  bool found = false;
  for (std::size_t t = 0; t < max_degrees.size(); ++t) {
    if (max_ids[t] == n) continue;
    if (!found || max_degrees[t] > best_degree ||
        (max_degrees[t] == best_degree && max_ids[t] < best_id)) {
      best_degree = max_degrees[t];
      best_id = max_ids[t];
      found = true;
    }
  }
  THRIFTY_ENSURES(found);
  return best_id;
}

}  // namespace thrifty::graph
