// Tests for src/reorder/relabel: the structured bijection checker
// (including gen/ permutations), label map-back and the permutation
// sidecar file format.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/combine.hpp"
#include "graph/types.hpp"
#include "reorder/relabel.hpp"
#include "reorder/reorder.hpp"

namespace thrifty::reorder {
namespace {

using graph::Label;
using graph::VertexId;

TEST(Relabel, ValidPermutationPasses) {
  const Permutation perm = random_order(500, 3);
  const RelabelReport report = validate_relabel(perm, 500);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.first_violation, RelabelViolation::kNone);
  EXPECT_EQ(report.out_of_range, 0u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.missing_targets, 0u);
  EXPECT_NE(report.to_string().find("valid"), std::string::npos);
  // gen/combine.hpp permutations share the perm[old] == new convention
  // and validate under the same checker.
  EXPECT_TRUE(validate_relabel(gen::random_permutation(64, 3), 64).ok());
}

TEST(Relabel, EmptyIsValid) {
  EXPECT_TRUE(validate_relabel({}, 0).ok());
}

TEST(Relabel, SizeMismatchReported) {
  const Permutation perm = identity_order(4);
  const RelabelReport report = validate_relabel(perm, 5);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, RelabelViolation::kSizeMismatch);
  EXPECT_EQ(report.expected_n, 5u);
  EXPECT_EQ(report.actual_size, 4u);
  EXPECT_NE(report.to_string().find("size mismatch"), std::string::npos);
}

TEST(Relabel, OutOfRangeReportsFirstSiteAndCount) {
  Permutation perm = identity_order(8);
  perm[3] = 8;   // == n, first violator
  perm[6] = 99;  // far out, counted too
  const RelabelReport report = validate_relabel(perm, 8);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, RelabelViolation::kOutOfRange);
  EXPECT_EQ(report.first_index, 3u);
  EXPECT_EQ(report.first_value, 8u);
  EXPECT_EQ(report.out_of_range, 2u);
}

TEST(Relabel, DuplicateReportsCollidingPairAndHoles) {
  Permutation perm = identity_order(8);
  perm[5] = 2;  // collides with perm[2]; target 5 left unmapped
  const RelabelReport report = validate_relabel(perm, 8);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_violation, RelabelViolation::kDuplicate);
  EXPECT_EQ(report.first_index, 5u);    // second member of the pair
  EXPECT_EQ(report.first_value, 2u);
  EXPECT_EQ(report.duplicate_of, 2u);   // smallest old id hitting 2
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(report.missing_targets, 1u);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("duplicate"), std::string::npos);
  EXPECT_NE(text.find("old=5"), std::string::npos);
}

TEST(Relabel, OutOfRangeTakesPrecedenceOverDuplicate) {
  // Both violations present: the range violation is the more severe
  // (it breaks the scatter), so it leads the report.
  Permutation perm = identity_order(8);
  perm[1] = 20;
  perm[5] = 2;
  const RelabelReport report = validate_relabel(perm, 8);
  EXPECT_EQ(report.first_violation, RelabelViolation::kOutOfRange);
  EXPECT_EQ(report.out_of_range, 1u);
  EXPECT_EQ(report.duplicates, 1u);
}

TEST(Relabel, MapLabelsBackTranslatesRepresentatives) {
  // Graph with two classes; labels on the reordered graph use new-space
  // representative ids, which must come back as original-space ids.
  const Permutation perm = {2, 0, 3, 1};  // old -> new
  // New-space labelling: {new0,new1} share class rep new0; {new2,new3}
  // share rep new2.  new0 = old1, new2 = old0.
  const std::vector<Label> reordered_labels = {0, 0, 2, 2};
  const std::vector<Label> mapped =
      map_labels_back(reordered_labels, perm);
  // old0 -> new2 -> label 2 -> inverse(2) = old0.
  EXPECT_EQ(mapped[0], 0u);
  EXPECT_EQ(mapped[1], 1u);  // old1 -> new0 -> label 0 -> old1
  EXPECT_EQ(mapped[2], 0u);  // old2 -> new3 -> label 2 -> old0
  EXPECT_EQ(mapped[3], 1u);  // old3 -> new1 -> label 0 -> old1
}

TEST(Relabel, MapLabelsBackPassesThroughOutOfSpaceValues) {
  // Thrifty reserves labels >= n for plant sites; those values carry no
  // vertex identity and must survive the map-back untouched.
  const Permutation perm = {1, 0};
  const std::vector<Label> reordered_labels = {7, 7};
  const std::vector<Label> mapped =
      map_labels_back(reordered_labels, perm);
  EXPECT_EQ(mapped[0], 7u);
  EXPECT_EQ(mapped[1], 7u);
}

class RelabelFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("relabel_test_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".perm"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(RelabelFileTest, SidecarRoundTrips) {
  const Permutation perm = random_order(300, 13);
  write_permutation_file(path_, perm);
  const Permutation loaded = read_permutation_file(path_);
  EXPECT_EQ(loaded, perm);
}

TEST_F(RelabelFileTest, EmptyPermutationRoundTrips) {
  write_permutation_file(path_, {});
  EXPECT_TRUE(read_permutation_file(path_).empty());
}

TEST_F(RelabelFileTest, RejectsMissingHeader) {
  std::ofstream(path_) << "n 2\n0\n1\n";
  EXPECT_THROW((void)read_permutation_file(path_), std::runtime_error);
}

TEST_F(RelabelFileTest, RejectsTruncatedArray) {
  std::ofstream(path_) << "# thrifty permutation v1\nn 3\n0\n1\n";
  EXPECT_THROW((void)read_permutation_file(path_), std::runtime_error);
}

TEST_F(RelabelFileTest, RejectsTrailingEntries) {
  std::ofstream(path_) << "# thrifty permutation v1\nn 2\n0\n1\n1\n";
  EXPECT_THROW((void)read_permutation_file(path_), std::runtime_error);
}

TEST_F(RelabelFileTest, RejectsNonBijectionWithReportDetail) {
  std::ofstream(path_) << "# thrifty permutation v1\nn 3\n0\n0\n2\n";
  try {
    (void)read_permutation_file(path_);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST_F(RelabelFileTest, MissingFileThrows) {
  EXPECT_THROW((void)read_permutation_file(path_ + ".nope"),
               std::runtime_error);
}

}  // namespace
}  // namespace thrifty::reorder
