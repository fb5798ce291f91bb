#include "cc_baselines/bfs_cc.hpp"

#include <atomic>

#include "frontier/bitmap.hpp"
#include "frontier/sliding_queue.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace thrifty::baselines {

using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;

namespace {

constexpr Label kUnvisited = static_cast<Label>(-1);

// Beamer's direction-switching constants.
constexpr EdgeOffset kAlpha = 15;
constexpr std::uint64_t kBeta = 18;

/// Claims `v` for component `component` iff unvisited.
bool claim(core::LabelArray& labels, VertexId v, Label component) {
  std::atomic_ref<Label> ref(labels[v]);
  Label expected = kUnvisited;
  return ref.compare_exchange_strong(expected, component,
                                     std::memory_order_relaxed);
}

/// One bottom-up step: every unvisited vertex scans its neighbours for a
/// member of the current frontier.  Returns the number of newly awakened
/// vertices.
std::uint64_t bottom_up_step(const graph::CsrGraph& g,
                             core::LabelArray& labels, Label component,
                             const frontier::Bitmap& front,
                             frontier::Bitmap& next) {
  const VertexId n = g.num_vertices();
  std::uint64_t awake = 0;
#pragma omp parallel for num_threads(support::threads_for( \
    n + g.num_directed_edges())) schedule(dynamic, 1024) reduction(+ : awake)
  for (VertexId v = 0; v < n; ++v) {
    if (core::load_label(labels[v]) != kUnvisited) continue;
    for (const VertexId u : g.neighbors(v)) {
      if (front.get(u)) {
        labels[v] = component;  // v is owned by this thread
        next.set_atomic(v);
        ++awake;
        break;
      }
    }
  }
  return awake;
}

/// One top-down step over the queue window, whose edge mass is
/// `window_edges`.  Returns the edge mass (sum of degrees) of the newly
/// discovered frontier.
std::uint64_t top_down_step(const graph::CsrGraph& g,
                            core::LabelArray& labels, Label component,
                            frontier::SlidingQueue& queue,
                            std::uint64_t window_edges) {
  const auto window = queue.window();
  std::uint64_t scout = 0;
#pragma omp parallel num_threads( \
    support::threads_for(window.size() + window_edges)) reduction(+ : scout)
  {
    frontier::SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(dynamic, 64) nowait
    for (std::size_t i = 0; i < window.size(); ++i) {
      const VertexId v = window[i];
      for (const VertexId u : g.neighbors(v)) {
        if (core::load_label(labels[u]) == kUnvisited &&
            claim(labels, u, component)) {
          buffer.push_back(u);
          scout += g.degree(u);
        }
      }
    }
  }
  return scout;
}

/// BFS labelling the whole component of `source` with label `source`.
/// `front`/`next` bitmaps are shared across calls and only touched (and
/// re-cleared) when the traversal goes bottom-up, so the myriad tiny
/// components of web-like graphs do not pay O(V/64) each.
void bfs_component(const graph::CsrGraph& g, core::LabelArray& labels,
                   VertexId source, frontier::SlidingQueue& queue,
                   frontier::Bitmap& front, frontier::Bitmap& next) {
  const Label component = source;
  const EdgeOffset m = g.num_directed_edges();
  labels[source] = component;
  queue.reset();
  queue.push_back(source);
  queue.slide_window();
  std::uint64_t scout = g.degree(source);

  while (!queue.empty()) {
    if (scout > m / kAlpha) {
      // Dense phase: convert queue -> bitmap and run bottom-up.
      front.clear();
      for (const VertexId v : queue.window()) front.set(v);
      std::uint64_t awake = queue.size();
      do {
        next.clear();
        awake = bottom_up_step(g, labels, component, front, next);
        front.swap(next);
      } while (awake > g.num_vertices() / kBeta && awake > 0);
      // Convert bitmap -> queue and resume top-down.
      queue.reset();
      if (awake > 0) {
        const VertexId n = g.num_vertices();
#pragma omp parallel num_threads(support::threads_for(n))
        {
          frontier::SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(static) nowait
          for (VertexId v = 0; v < n; ++v) {
            if (front.get(v)) buffer.push_back(v);
          }
        }
      }
      queue.slide_window();
      scout = 0;
    } else {
      scout = top_down_step(g, labels, component, queue, scout);
      queue.slide_window();
    }
  }
}

}  // namespace

core::CcResult bfs_cc(const graph::CsrGraph& graph,
                      const core::CcOptions& options) {
  (void)options;
  const VertexId n = graph.num_vertices();
  core::CcResult result;
  result.stats.algorithm = "bfs_cc";
  result.labels = core::make_label_array(n);
  core::LabelArray& labels = result.labels;
  support::Timer timer;
  if (n == 0) return result;

  support::parallel_for(n, [&](VertexId v) { labels[v] = kUnvisited; });

  frontier::SlidingQueue queue(n);
  frontier::Bitmap front(n);
  frontier::Bitmap next(n);
  int components = 0;
  for (VertexId seed = 0; seed < n; ++seed) {
    if (labels[seed] != kUnvisited) continue;
    ++components;
    bfs_component(graph, labels, seed, queue, front, next);
  }

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = components;
  return result;
}

}  // namespace thrifty::baselines
