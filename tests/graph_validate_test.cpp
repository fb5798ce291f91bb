// Tests for src/graph/validate: the CSR invariant checker must accept
// everything the builder pipeline produces and pinpoint each violation
// class on hand-corrupted raw arrays.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "graph/validate.hpp"
#include "support/parallel.hpp"

namespace thrifty::graph {
namespace {

using OffsetVec = std::vector<EdgeOffset>;
using NeighborVec = std::vector<VertexId>;

ValidationReport run(const OffsetVec& offsets, const NeighborVec& neighbors,
                     const ValidateOptions& options = {}) {
  return validate_csr(std::span<const EdgeOffset>(offsets),
                      std::span<const VertexId>(neighbors), options);
}

// Triangle 0-1-2, both directions, sorted lists.
const OffsetVec kTriOffsets{0, 2, 4, 6};
const NeighborVec kTriNeighbors{1, 2, 0, 2, 0, 1};

TEST(ValidateCsr, AcceptsWellFormedGraph) {
  const ValidationReport report = run(kTriOffsets, kTriNeighbors);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.first_violation, CsrViolation::kNone);
  EXPECT_TRUE(report.symmetry_checked);
  EXPECT_EQ(report.self_loops, 0u);
  EXPECT_EQ(report.duplicate_edges, 0u);
  EXPECT_EQ(report.unsorted_adjacencies, 0u);
}

TEST(ValidateCsr, AcceptsEmptyGraph) {
  EXPECT_TRUE(run({0}, {}).ok());
}

TEST(ValidateCsr, RejectsEmptyOffsets) {
  const ValidationReport report = run({}, {});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, CsrViolation::kEmptyOffsets);
}

TEST(ValidateCsr, RejectsNonZeroFirstOffset) {
  const ValidationReport report = run({1, 2, 4, 6}, kTriNeighbors);
  EXPECT_EQ(report.first_violation, CsrViolation::kFirstOffsetNonZero);
}

TEST(ValidateCsr, RejectsLastOffsetMismatch) {
  const ValidationReport report = run({0, 2, 4, 5}, kTriNeighbors);
  EXPECT_EQ(report.first_violation, CsrViolation::kLastOffsetMismatch);
  EXPECT_EQ(report.first_vertex, 3u);
}

TEST(ValidateCsr, RejectsNonMonotoneOffsets) {
  const ValidationReport report = run({0, 4, 2, 6}, kTriNeighbors);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, CsrViolation::kNonMonotoneOffsets);
  EXPECT_EQ(report.first_vertex, 1u);
  EXPECT_EQ(report.non_monotone_offsets, 1u);
}

TEST(ValidateCsr, RejectsOutOfRangeNeighborWithSite) {
  NeighborVec corrupt = kTriNeighbors;
  corrupt[3] = 7;  // vertex 1's second neighbour
  const ValidationReport report = run(kTriOffsets, corrupt);
  EXPECT_EQ(report.first_violation, CsrViolation::kNeighborOutOfRange);
  EXPECT_EQ(report.first_vertex, 1u);
  EXPECT_EQ(report.first_edge_index, 3u);
  EXPECT_EQ(report.out_of_range_neighbors, 1u);
}

TEST(ValidateCsr, CountsAllOutOfRangeNeighbors) {
  NeighborVec corrupt = kTriNeighbors;
  corrupt[0] = 9;
  corrupt[5] = 9;
  const ValidationReport report = run(kTriOffsets, corrupt);
  EXPECT_EQ(report.out_of_range_neighbors, 2u);
  EXPECT_EQ(report.first_vertex, 0u);
  EXPECT_EQ(report.first_edge_index, 0u);
}

TEST(ValidateCsr, DetectsMissingReverseEdge) {
  // Edge 0->1 present, 1->0 missing: {0:{1}, 1:{2}, 2:{1}} — 1->2 and
  // 2->1 are mutual, 0->1 is not.
  const ValidationReport report = run({0, 1, 2, 3}, {1, 2, 1});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, CsrViolation::kMissingReverseEdge);
  EXPECT_EQ(report.first_vertex, 0u);
  EXPECT_EQ(report.missing_reverse_edges, 1u);
  EXPECT_TRUE(report.symmetry_checked);
}

TEST(ValidateCsr, SymmetryCheckSkippable) {
  ValidateOptions options;
  options.check_symmetry = false;
  const ValidationReport report = run({0, 1, 2, 3}, {1, 2, 1}, options);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.symmetry_checked);
}

TEST(ValidateCsr, SymmetryWorksOnUnsortedLists) {
  // Same triangle with vertex 0's list reversed — still symmetric.
  const NeighborVec unsorted{2, 1, 0, 2, 0, 1};
  const ValidationReport report = run(kTriOffsets, unsorted);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.unsorted_adjacencies, 1u);
}

TEST(ValidateCsr, AdvisoryFlagsReportStructure) {
  // 0-0 self loop plus duplicated 0-1 edge.
  const OffsetVec offsets{0, 4, 6};
  const NeighborVec neighbors{0, 1, 1, 1, 0, 0};
  const ValidationReport report = run(offsets, neighbors);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.self_loops, 1u);
  EXPECT_GE(report.duplicate_edges, 2u);
}

TEST(ValidateCsr, StrictModeRejectsSelfLoops) {
  ValidateOptions options;
  options.forbid_self_loops = true;
  const ValidationReport report =
      run({0, 3, 5, 7}, {0, 1, 2, 0, 2, 0, 1}, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, CsrViolation::kSelfLoop);
  EXPECT_EQ(report.first_vertex, 0u);
}

TEST(ValidateCsr, StrictModeRejectsDuplicates) {
  ValidateOptions options;
  options.require_deduplicated = true;
  const ValidationReport report = run({0, 4, 6}, {0, 1, 1, 1, 0, 0},
                                      options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, CsrViolation::kDuplicateEdge);
}

TEST(ValidateCsr, StrictModeRejectsUnsorted) {
  ValidateOptions options;
  options.require_sorted = true;
  const ValidationReport report = run(kTriOffsets, {2, 1, 0, 2, 0, 1},
                                      options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, CsrViolation::kUnsortedAdjacency);
  EXPECT_EQ(report.first_vertex, 0u);
}

TEST(ValidateCsr, NeverReadsOutOfBoundsOnHostileOffsets) {
  // Offsets pointing far past the neighbour array must be reported, not
  // dereferenced (would crash / trip ASan if the clamp were missing).
  const ValidationReport report =
      run({0, 1'000'000, 2'000'000, 6}, kTriNeighbors);
  EXPECT_FALSE(report.ok());
}

TEST(ValidateCsr, BuilderOutputPassesStrictValidation) {
  gen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 16;  // n + m above support::kSerialCutoff
  const CsrGraph g = build_csr(gen::rmat_edges(params)).graph;
  ValidateOptions strict;
  strict.require_sorted = true;
  strict.require_deduplicated = true;
  strict.forbid_self_loops = true;
  const ValidationReport report = validate_csr(g, strict);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.symmetry_checked);
}

TEST(ValidateCsr, GridAndStarPassValidation) {
  gen::GridParams grid;
  grid.width = 64;  // n + m above support::kSerialCutoff
  grid.height = 64;
  EXPECT_TRUE(validate_csr(build_csr(gen::grid_edges(grid)).graph).ok());
  EXPECT_TRUE(validate_csr(build_csr(gen::star_edges(100)).graph).ok());
}

TEST(ValidateCsr, FirstSiteDeterministicAcrossThreadCounts) {
  // Path graph with two violations, n + m above support::kSerialCutoff;
  // the reported first site must be the smaller one no matter how the
  // parallel scan is scheduled.
  const CsrGraph g = build_csr(gen::path_edges(6000)).graph;
  NeighborVec corrupt(g.neighbor_array().begin(),
                      g.neighbor_array().end());
  const OffsetVec offsets(g.offsets().begin(), g.offsets().end());
  corrupt[100] = 1 << 30;
  corrupt[7000] = 1 << 30;
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    const ValidationReport report = run(offsets, corrupt);
    EXPECT_EQ(report.first_violation, CsrViolation::kNeighborOutOfRange);
    EXPECT_EQ(report.first_edge_index, 100u);
    EXPECT_EQ(report.out_of_range_neighbors, 2u);
  }
}

TEST(ValidateCsr, ReportToStringMentionsViolation) {
  NeighborVec corrupt = kTriNeighbors;
  corrupt[3] = 7;
  const std::string text = run(kTriOffsets, corrupt).to_string();
  EXPECT_NE(text.find("out of range"), std::string::npos) << text;
  EXPECT_NE(text.find("vertex 1"), std::string::npos) << text;
}

}  // namespace
}  // namespace thrifty::graph
