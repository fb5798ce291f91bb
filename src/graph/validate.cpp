#include "graph/validate.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "support/parallel.hpp"

namespace thrifty::graph {

namespace {

/// A violation site; ordered vertex-major so "first" is deterministic
/// regardless of thread schedule.
struct Site {
  CsrViolation violation = CsrViolation::kNone;
  std::size_t vertex = 0;
  EdgeOffset edge_index = 0;

  [[nodiscard]] bool earlier_than(const Site& other) const {
    if (violation == CsrViolation::kNone) return false;
    if (other.violation == CsrViolation::kNone) return true;
    if (vertex != other.vertex) return vertex < other.vertex;
    return edge_index < other.edge_index;
  }
};

void record(Site& first, CsrViolation violation, std::size_t vertex,
            EdgeOffset edge_index) {
  const Site candidate{violation, vertex, edge_index};
  if (candidate.earlier_than(first)) first = candidate;
}

/// Folds per-thread first sites into the report (serial, few entries).
void fold_first(ValidationReport& report, const std::vector<Site>& sites) {
  Site best;
  for (const Site& s : sites) {
    if (s.earlier_than(best)) best = s;
  }
  if (best.violation != CsrViolation::kNone &&
      report.first_violation == CsrViolation::kNone) {
    report.first_violation = best.violation;
    report.first_vertex = static_cast<VertexId>(best.vertex);
    report.first_edge_index = best.edge_index;
  }
}

}  // namespace

const char* to_string(CsrViolation v) {
  switch (v) {
    case CsrViolation::kNone:
      return "none";
    case CsrViolation::kEmptyOffsets:
      return "empty offsets array";
    case CsrViolation::kFirstOffsetNonZero:
      return "offsets[0] != 0";
    case CsrViolation::kLastOffsetMismatch:
      return "offsets[n] != neighbor count";
    case CsrViolation::kNonMonotoneOffsets:
      return "non-monotone offsets";
    case CsrViolation::kNeighborOutOfRange:
      return "neighbor id out of range";
    case CsrViolation::kMissingReverseEdge:
      return "missing reverse edge";
    case CsrViolation::kUnsortedAdjacency:
      return "unsorted adjacency list";
    case CsrViolation::kDuplicateEdge:
      return "duplicate edge";
    case CsrViolation::kSelfLoop:
      return "self loop";
  }
  return "unknown";
}

std::string ValidationReport::to_string() const {
  std::ostringstream out;
  if (ok()) {
    out << "valid CSR";
    if (unsorted_adjacencies == 0) out << ", sorted";
    if (duplicate_edges == 0) out << ", deduplicated";
    if (self_loops > 0) out << ", " << self_loops << " self loop(s)";
    if (symmetry_checked) out << ", symmetric";
    return out.str();
  }
  out << "invalid CSR: " << graph::to_string(first_violation);
  if (first_violation != CsrViolation::kEmptyOffsets) {
    out << " at vertex " << first_vertex;
    if (first_violation == CsrViolation::kNeighborOutOfRange ||
        first_violation == CsrViolation::kMissingReverseEdge) {
      out << ", edge index " << first_edge_index;
    }
  }
  const std::uint64_t total = non_monotone_offsets + out_of_range_neighbors +
                              missing_reverse_edges;
  if (total > 1) out << " (+" << (total - 1) << " more)";
  return out.str();
}

ValidationReport validate_csr(std::span<const EdgeOffset> offsets,
                              std::span<const VertexId> neighbors,
                              const ValidateOptions& options) {
  ValidationReport report;
  if (offsets.empty()) {
    report.first_violation = CsrViolation::kEmptyOffsets;
    return report;
  }
  const std::size_t n = offsets.size() - 1;
  const auto m = static_cast<EdgeOffset>(neighbors.size());
  const std::uint64_t id_limit = options.id_limit.value_or(n);
  if (offsets.front() != 0) {
    report.first_violation = CsrViolation::kFirstOffsetNonZero;
    report.first_vertex = 0;
    return report;
  }
  if (offsets.back() != m) {
    report.first_violation = CsrViolation::kLastOffsetMismatch;
    report.first_vertex = static_cast<VertexId>(n);
    return report;
  }

  // Structural pass: monotonicity, neighbour range, and per-list order
  // flags, clamping every adjacency range to [0, m) so arbitrary offset
  // values can never index out of bounds.
  const int threads = support::num_threads();
  std::vector<Site> first_sites(static_cast<std::size_t>(threads));
  std::vector<std::uint8_t> sorted_list(n, 1);
  std::uint64_t non_monotone = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t unsorted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t loops = 0;
#pragma omp parallel num_threads(threads) reduction(+ : non_monotone,     \
    out_of_range, unsorted, duplicates, loops)
  {
    Site& first = first_sites[static_cast<std::size_t>(
        support::thread_id())];
#pragma omp for schedule(static) nowait
    for (std::size_t v = 0; v < n; ++v) {
      if (offsets[v] > offsets[v + 1]) {
        ++non_monotone;
        record(first, CsrViolation::kNonMonotoneOffsets, v, offsets[v]);
      }
      const EdgeOffset begin = std::min(offsets[v], m);
      const EdgeOffset end = std::min(std::max(offsets[v], offsets[v + 1]),
                                      m);
      bool list_sorted = true;
      for (EdgeOffset e = begin; e < end; ++e) {
        const VertexId w = neighbors[e];
        if (w >= id_limit) {
          ++out_of_range;
          record(first, CsrViolation::kNeighborOutOfRange, v, e);
        }
        if (w == v) {
          ++loops;
          if (options.forbid_self_loops) {
            record(first, CsrViolation::kSelfLoop, v, e);
          }
        }
        if (e > begin) {
          if (neighbors[e - 1] > w) {
            if (list_sorted && options.require_sorted) {
              record(first, CsrViolation::kUnsortedAdjacency, v, e);
            }
            list_sorted = false;
          }
          if (neighbors[e - 1] == w) {
            ++duplicates;
            if (options.require_deduplicated) {
              record(first, CsrViolation::kDuplicateEdge, v, e);
            }
          }
        }
      }
      if (!list_sorted) {
        ++unsorted;
        sorted_list[v] = 0;
      }
    }
  }
  report.non_monotone_offsets = non_monotone;
  report.out_of_range_neighbors = out_of_range;
  report.unsorted_adjacencies = unsorted;
  report.duplicate_edges = duplicates;
  report.self_loops = loops;
  fold_first(report, first_sites);

  // Symmetry pass: only meaningful once the structure is sound — with
  // broken offsets or out-of-range ids there is no well-defined edge set
  // to check for reverses.
  if (options.check_symmetry && report.ok()) {
    std::fill(first_sites.begin(), first_sites.end(), Site{});
    std::uint64_t missing = 0;
#pragma omp parallel num_threads(threads) reduction(+ : missing)
    {
      Site& first = first_sites[static_cast<std::size_t>(
          support::thread_id())];
#pragma omp for schedule(dynamic, 1024) nowait
      for (std::size_t v = 0; v < n; ++v) {
        for (EdgeOffset e = offsets[v]; e < offsets[v + 1]; ++e) {
          const VertexId w = neighbors[e];
          const VertexId* begin = neighbors.data() + offsets[w];
          const VertexId* end = neighbors.data() + offsets[w + 1];
          const auto target = static_cast<VertexId>(v);
          const bool present =
              sorted_list[w]
                  ? std::binary_search(begin, end, target)
                  : std::find(begin, end, target) != end;
          if (!present) {
            ++missing;
            record(first, CsrViolation::kMissingReverseEdge, v, e);
          }
        }
      }
    }
    report.missing_reverse_edges = missing;
    fold_first(report, first_sites);
    report.symmetry_checked = true;
  }
  return report;
}

ValidationReport validate_csr(const CsrGraph& graph,
                              const ValidateOptions& options) {
  return validate_csr(graph.offsets(), graph.neighbor_array(), options);
}

}  // namespace thrifty::graph
