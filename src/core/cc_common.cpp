#include "core/cc_common.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>

#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace thrifty::core {

using graph::Label;

void copy_labels(std::span<const Label> src, std::span<Label> dst) {
  THRIFTY_EXPECTS(src.size() == dst.size());
  support::parallel_region(src.size(), [&](int t, int threads) {
    const auto [begin, end] = support::thread_slice(src.size(), t, threads);
    std::copy(src.begin() + begin, src.begin() + end, dst.begin() + begin);
  });
}

std::uint64_t count_equal_labels(std::span<const Label> a,
                                 std::span<const Label> b) {
  THRIFTY_EXPECTS(a.size() == b.size());
  return support::parallel_sum(a.size(), [&](std::size_t i) {
    return a[i] == b[i] ? 1 : 0;
  });
}

namespace {

constexpr Label kNoVertex = std::numeric_limits<Label>::max();

/// canonical_labels for labellings with a label above n, where a dense
/// table indexed by label could be far larger than the input.
std::vector<Label> canonical_labels_sparse(std::span<const Label> labels) {
  std::unordered_map<Label, Label> representative;
  representative.reserve(labels.size() / 16 + 8);
  for (std::size_t v = 0; v < labels.size(); ++v) {
    auto [it, inserted] =
        representative.try_emplace(labels[v], static_cast<Label>(v));
    if (!inserted && static_cast<Label>(v) < it->second) {
      it->second = static_cast<Label>(v);
    }
  }
  std::vector<Label> canonical(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    canonical[v] = representative.at(labels[v]);
  }
  return canonical;
}

/// Class sizes of a canonical labelling, indexed by representative (0
/// at every other vertex).
std::vector<std::uint64_t> class_sizes(std::span<const Label> canonical) {
  std::vector<std::uint64_t> sizes(canonical.size(), 0);
  for (const Label c : canonical) ++sizes[c];
  return sizes;
}

}  // namespace

std::uint64_t count_components(std::span<const Label> labels) {
  const std::vector<Label> canonical = canonical_labels(labels);
  std::uint64_t count = 0;
  for (std::size_t v = 0; v < canonical.size(); ++v) {
    count += canonical[v] == v ? 1 : 0;
  }
  return count;
}

std::vector<Label> canonical_labels(std::span<const Label> labels) {
  const std::size_t n = labels.size();
  const int threads = support::threads_for(n);
  Label max_label = 0;
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(max : max_label)
  for (std::size_t v = 0; v < n; ++v) {
    max_label = std::max(max_label, labels[v]);
  }
  if (max_label > n) return canonical_labels_sparse(labels);

  // Every engine's labels are at most n (Thrifty's are 0 or min id + 1),
  // so a dense table indexed by label holds each class's smallest vertex.
  LabelArray first(static_cast<std::size_t>(max_label) + 1);
  std::vector<Label> canonical(n);
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static)
    for (std::size_t l = 0; l < first.size(); ++l) first[l] = kNoVertex;
#pragma omp for schedule(static)
    for (std::size_t v = 0; v < n; ++v) {
      atomic_min(first[labels[v]], static_cast<Label>(v));
    }
#pragma omp for schedule(static)
    for (std::size_t v = 0; v < n; ++v) canonical[v] = first[labels[v]];
  }
  return canonical;
}

bool same_partition(std::span<const Label> a, std::span<const Label> b) {
  if (a.size() != b.size()) return false;
  return canonical_labels(a) == canonical_labels(b);
}

std::vector<Label> compact_labels(std::span<const Label> labels) {
  // Representatives are first appearances, so numbering them in vertex
  // order numbers the classes in order of first appearance.
  const std::vector<Label> canonical = canonical_labels(labels);
  std::vector<Label> compact(canonical.size());
  Label next = 0;
  for (std::size_t v = 0; v < canonical.size(); ++v) {
    compact[v] = canonical[v] == v ? next++ : compact[canonical[v]];
  }
  return compact;
}

std::vector<std::uint64_t> component_sizes(std::span<const Label> labels) {
  std::vector<std::uint64_t> sizes = class_sizes(canonical_labels(labels));
  std::erase(sizes, 0);
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return sizes;
}

LargestComponent largest_component(std::span<const Label> labels) {
  const std::vector<std::uint64_t> sizes =
      class_sizes(canonical_labels(labels));
  LargestComponent best;
  for (std::size_t v = 0; v < sizes.size(); ++v) {
    const std::uint64_t size = sizes[v];
    if (size > best.size ||
        (size == best.size && labels[v] < best.label)) {
      best = {labels[v], size};
    }
  }
  return best;
}

}  // namespace thrifty::core
