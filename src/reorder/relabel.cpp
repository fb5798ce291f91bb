#include "reorder/relabel.hpp"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::reorder {

using graph::Label;
using graph::VertexId;
using support::UninitVector;

const char* to_string(RelabelViolation v) {
  switch (v) {
    case RelabelViolation::kNone: return "none";
    case RelabelViolation::kSizeMismatch: return "size mismatch";
    case RelabelViolation::kOutOfRange: return "entry out of range";
    case RelabelViolation::kDuplicate: return "duplicate target";
  }
  return "none";
}

std::string RelabelReport::to_string() const {
  std::ostringstream out;
  if (ok()) {
    out << "valid relabel array: n=" << expected_n;
    return out.str();
  }
  out << "invalid relabel array: " << reorder::to_string(first_violation);
  switch (first_violation) {
    case RelabelViolation::kSizeMismatch:
      out << " (n=" << expected_n << ", entries=" << actual_size << ")";
      break;
    case RelabelViolation::kOutOfRange:
      out << " at old=" << first_index << " (new=" << first_value;
      if (out_of_range > 1) out << ", +" << (out_of_range - 1) << " more";
      out << ")";
      break;
    case RelabelViolation::kDuplicate:
      out << " at old=" << first_index << " (new=" << first_value
          << ", collides with old=" << duplicate_of;
      if (duplicates > 1) out << ", +" << (duplicates - 1) << " more";
      out << "; " << missing_targets << " targets unmapped)";
      break;
    case RelabelViolation::kNone:
      break;
  }
  return out.str();
}

namespace {

/// CAS-min on a shared VertexId slot, relaxed: validation is a monotone
/// min computation whose result does not depend on observation order.
void atomic_min_vertex(VertexId& slot, VertexId value) {
  std::atomic_ref<VertexId> ref(slot);
  VertexId current = ref.load(std::memory_order_relaxed);
  while (value < current &&
         !ref.compare_exchange_weak(current, value,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace

RelabelReport validate_relabel(std::span<const VertexId> perm, VertexId n) {
  RelabelReport report;
  report.expected_n = n;
  report.actual_size = perm.size();
  if (perm.size() != n) {
    report.first_violation = RelabelViolation::kSizeMismatch;
    return report;
  }
  if (n == 0) return report;

  // min_owner[t] = smallest old id mapping to target t (n = unclaimed).
  // One shared array instead of per-thread histograms: collisions are
  // resolved by a CAS min, so the result is deterministic and the second
  // pass can classify every entry against the canonical owner.
  UninitVector<VertexId> min_owner(n);
  support::parallel_for(n, [&](VertexId t) { min_owner[t] = n; });

  std::uint64_t out_of_range = 0;
  std::uint64_t first_oor = std::numeric_limits<std::uint64_t>::max();
#pragma omp parallel for num_threads(support::threads_for(n)) \
    schedule(static) reduction(+ : out_of_range) reduction(min : first_oor)
  for (VertexId v = 0; v < n; ++v) {
    const VertexId target = perm[v];
    if (target >= n) {
      ++out_of_range;
      first_oor = std::min<std::uint64_t>(first_oor, v);
    } else {
      atomic_min_vertex(min_owner[target], v);
    }
  }

  std::uint64_t duplicates = 0;
  std::uint64_t first_dup = std::numeric_limits<std::uint64_t>::max();
#pragma omp parallel for num_threads(support::threads_for(n)) \
    schedule(static) reduction(+ : duplicates) reduction(min : first_dup)
  for (VertexId v = 0; v < n; ++v) {
    const VertexId target = perm[v];
    if (target < n && min_owner[target] != v) {
      ++duplicates;
      first_dup = std::min<std::uint64_t>(first_dup, v);
    }
  }
  const std::uint64_t missing = support::parallel_sum(
      n, [&](VertexId t) { return min_owner[t] == n ? 1 : 0; });

  report.out_of_range = out_of_range;
  report.duplicates = duplicates;
  report.missing_targets = missing;
  if (out_of_range > 0) {
    report.first_violation = RelabelViolation::kOutOfRange;
    report.first_index = static_cast<VertexId>(first_oor);
    report.first_value = perm[report.first_index];
  } else if (duplicates > 0) {
    report.first_violation = RelabelViolation::kDuplicate;
    report.first_index = static_cast<VertexId>(first_dup);
    report.first_value = perm[report.first_index];
    report.duplicate_of = min_owner[report.first_value];
  }
  return report;
}

std::vector<Label> map_labels_back(std::span<const Label> reordered_labels,
                                   std::span<const VertexId> perm) {
  THRIFTY_EXPECTS(reordered_labels.size() == perm.size());
  const auto n = static_cast<VertexId>(perm.size());
  // new id -> old id, to translate both the per-vertex slots and the
  // label values (new-space representatives) in one parallel pass.
  UninitVector<VertexId> inverse(n);
  support::parallel_for(n, [&](VertexId v) {
    THRIFTY_EXPECTS(perm[v] < n);
    inverse[perm[v]] = v;
  });
  std::vector<Label> labels(n);
  support::parallel_for(n, [&](VertexId v) {
    const Label label = reordered_labels[perm[v]];
    // Values that are new-space vertex ids are translated to the
    // original id of that representative; values outside the id space
    // (Thrifty's plant-reserved labels) pass through verbatim.  The two
    // ranges cannot collide — translated values are < n, kept ones are
    // >= n — so the partition is unchanged either way.
    labels[v] = label < n ? inverse[label] : label;
  });
  return labels;
}

namespace {

constexpr const char* kPermHeader = "# thrifty permutation v1";

[[noreturn]] void perm_file_error(const std::string& path,
                                  const std::string& why) {
  throw std::runtime_error("permutation file '" + path + "': " + why);
}

}  // namespace

void write_permutation_file(const std::string& path,
                            std::span<const VertexId> perm) {
  std::ofstream out(path);
  if (!out) perm_file_error(path, "cannot open for writing");
  out << kPermHeader << "\n";
  out << "n " << perm.size() << "\n";
  for (const VertexId p : perm) {
    out << p << "\n";
  }
  out.flush();
  if (!out) perm_file_error(path, "write failed");
}

Permutation read_permutation_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) perm_file_error(path, "cannot open");
  std::string line;
  if (!std::getline(in, line) || line != kPermHeader) {
    perm_file_error(path,
                    "missing '" + std::string(kPermHeader) + "' header");
  }
  std::uint64_t declared = 0;
  {
    std::string key;
    if (!(in >> key >> declared) || key != "n") {
      perm_file_error(path, "missing 'n <count>' line");
    }
    if (declared > std::numeric_limits<VertexId>::max()) {
      perm_file_error(path, "vertex count exceeds 32-bit id space");
    }
  }
  Permutation perm;
  perm.reserve(declared);
  for (std::uint64_t i = 0; i < declared; ++i) {
    std::uint64_t value = 0;
    if (!(in >> value)) {
      perm_file_error(path, "truncated: expected " +
                                std::to_string(declared) + " entries, got " +
                                std::to_string(i));
    }
    if (value > std::numeric_limits<VertexId>::max()) {
      perm_file_error(path, "entry " + std::to_string(i) +
                                " exceeds 32-bit id space");
    }
    perm.push_back(static_cast<VertexId>(value));
  }
  std::uint64_t trailing = 0;
  if (in >> trailing) perm_file_error(path, "trailing entries after array");
  const RelabelReport report =
      validate_relabel(perm, static_cast<VertexId>(declared));
  if (!report.ok()) perm_file_error(path, report.to_string());
  return perm;
}

}  // namespace thrifty::reorder
