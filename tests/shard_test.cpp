// Tests for the out-of-core sharding subsystem: partition invariants of
// the decomposition, manifest + sidecar round-trips with typed-IoError
// rejection of corrupt files, partition equality of the sharded solver
// against the union-find reference across shard counts and scenario
// families, eviction behaviour of the streaming residency policy under
// a tight memory budget, and the repro-file `shards` key.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/io_error.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"
#include "shard/solver.hpp"
#include "support/parallel.hpp"
#include "testing/oracles.hpp"
#include "testing/repro.hpp"
#include "testing/scenario.hpp"

namespace thrifty::shard {
namespace {

using graph::CsrGraph;
using graph::Label;
using graph::VertexId;
using io::IoError;
using io::IoErrorKind;

/// At the default scale n + m is above support::kSerialCutoff, so builds
/// and whole-graph sweeps run on real teams.
CsrGraph small_rmat(int scale = 11) {
  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = 8;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

// ---------------------------------------------------------------------
// Partition invariants.

TEST(ShardPartition, RangesTileTheVertexSpace) {
  const CsrGraph g = small_rmat();
  for (const int k : {1, 2, 3, 7}) {
    const ShardedGraph sharded = partition_shards(g, k);
    ASSERT_EQ(sharded.num_shards(), k);
    EXPECT_EQ(sharded.num_vertices, g.num_vertices());
    EXPECT_EQ(sharded.num_directed_edges, g.num_directed_edges());
    VertexId cursor = 0;
    for (const Shard& shard : sharded.shards) {
      EXPECT_EQ(shard.begin, cursor);
      EXPECT_LE(shard.begin, shard.end);
      EXPECT_EQ(shard.local.num_vertices(), shard.num_local());
      cursor = shard.end;
    }
    EXPECT_EQ(cursor, g.num_vertices());
  }
}

TEST(ShardPartition, IntraPlusCutEdgesAccountForEveryDirectedEdge) {
  const CsrGraph g = small_rmat();
  for (const int k : {2, 3, 7}) {
    const ShardedGraph sharded = partition_shards(g, k);
    std::uint64_t intra = 0;
    std::uint64_t cut = 0;
    for (const Shard& shard : sharded.shards) {
      intra += shard.local.num_directed_edges();
      cut += shard.cut_ids.size();
    }
    EXPECT_EQ(intra + cut, g.num_directed_edges()) << "k=" << k;
    EXPECT_EQ(cut, sharded.total_cut_pairs()) << "k=" << k;
  }
}

/// Index of the shard whose range holds `v`.
std::size_t owner_of(const ShardedGraph& sharded, VertexId v) {
  const auto it = std::upper_bound(
      sharded.shards.begin(), sharded.shards.end(), v,
      [](VertexId id, const Shard& shard) { return id < shard.end; });
  return static_cast<std::size_t>(it - sharded.shards.begin());
}

/// Row `u` of a shard's cut CSR.
std::span<const VertexId> cut_row(const Shard& shard, VertexId u) {
  return {shard.cut_ids.data() + shard.cut_offsets[u],
          static_cast<std::size_t>(shard.cut_offsets[u + 1] -
                                   shard.cut_offsets[u])};
}

// A cut row lists exactly the remote neighbours of its vertex, by global
// id, none of them inside the row's own shard (the boundary pull reads
// them while it writes the shard's labels), and every cut pair (u, v)
// appears mirrored as (v, u) in the shard that owns v.
TEST(ShardPartition, CutIdsLieOutsideTheirShardAndMirrorAcrossTheCut) {
  const CsrGraph g = small_rmat();
  const ShardedGraph sharded = partition_shards(g, 5);
  ASSERT_GT(sharded.total_cut_pairs(), 0u);
  for (const Shard& shard : sharded.shards) {
    ASSERT_EQ(shard.cut_offsets.size(), shard.num_local() + 1u);
    ASSERT_EQ(shard.cut_offsets.back(), shard.cut_ids.size());
    for (VertexId u = 0; u < shard.num_local(); ++u) {
      const VertexId global = shard.begin + u;
      std::vector<VertexId> remote;
      for (const VertexId v : g.neighbors(global)) {
        if (v < shard.begin || v >= shard.end) remote.push_back(v);
      }
      const auto row = cut_row(shard, u);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), remote.begin(),
                             remote.end()))
          << "vertex " << global;
      for (const VertexId v : row) {
        ASSERT_LT(v, sharded.num_vertices);
        const std::size_t owner = owner_of(sharded, v);
        ASSERT_NE(&sharded.shards[owner], &shard) << "vertex " << global;
        const Shard& other = sharded.shards[owner];
        const auto mirror = cut_row(other, v - other.begin);
        EXPECT_NE(std::find(mirror.begin(), mirror.end(), global),
                  mirror.end())
            << "cut pair (" << global << ", " << v << ") has no mirror";
      }
    }
  }
}

TEST(ShardPartition, SingleShardHasNoBoundary) {
  const CsrGraph g = small_rmat();
  const ShardedGraph sharded = partition_shards(g, 1);
  ASSERT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.total_cut_pairs(), 0u);
  EXPECT_EQ(sharded.shards[0].local.num_directed_edges(),
            g.num_directed_edges());
}

TEST(ShardPartition, ShardCountClampsToVertexCount) {
  const CsrGraph g = graph::build_csr(gen::cycle_edges(5)).graph;
  const ShardedGraph sharded = partition_shards(g, 100);
  EXPECT_LE(sharded.num_shards(), static_cast<int>(g.num_vertices()));
  EXPECT_GE(sharded.num_shards(), 1);
}

TEST(ShardPartition, EmptyGraphYieldsOneEmptyShard) {
  const CsrGraph empty = graph::build_csr(graph::EdgeList{}, 0).graph;
  const ShardedGraph sharded = partition_shards(empty, 4);
  ASSERT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.total_cut_pairs(), 0u);
  EXPECT_EQ(sharded.shards[0].num_local(), 0u);
}

// ---------------------------------------------------------------------
// Solver correctness: partition equality against the union-find
// reference across shard counts and scenario families.

void expect_matches_reference(const CsrGraph& g, int num_shards) {
  const std::vector<Label> reference = testing::reference_partition(g);
  const ShardedGraph sharded = partition_shards(g, num_shards);
  const ShardedCcResult result = sharded_cc(sharded);
  ASSERT_EQ(result.labels.size(), g.num_vertices());
  EXPECT_TRUE(core::same_partition(result.label_span(), reference))
      << "k=" << num_shards;
  // The sharded labelling is canonical (min id per component), so it
  // must equal canonical_labels of itself — i.e. already canonical.
  const std::vector<Label> canon =
      core::canonical_labels(result.label_span());
  EXPECT_TRUE(std::equal(canon.begin(), canon.end(),
                         result.label_span().begin()));
}

TEST(ShardedSolve, MatchesReferenceAcrossShardCounts) {
  const CsrGraph g = small_rmat();
  for (const int k : {1, 2, 3, 7}) {
    expect_matches_reference(g, k);
  }
  // Cut CSRs of at least support::kSerialCutoff pairs: the boundary pull
  // runs as a parallel region.
  const CsrGraph large = small_rmat(13);
  ASSERT_GE(partition_shards(large, 2).shards[0].cut_ids.size(),
            support::kSerialCutoff);
  expect_matches_reference(large, 2);
}

TEST(ShardedSolve, MatchesReferenceOnEveryScenarioFamily) {
  for (const std::string& family : testing::scenario_families()) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      const testing::Scenario scenario =
          testing::scenario_from_spec(family + ":" + std::to_string(seed));
      const CsrGraph g = testing::build_scenario_graph(scenario);
      for (const int k : {2, 3, 7}) {
        SCOPED_TRACE(scenario.spec + " k=" + std::to_string(k));
        expect_matches_reference(g, k);
      }
    }
  }
}

// Exchange accounting on the smallest cut: the path 0-1-2-3 splits
// into {0,1} and {2,3}.  Round 0 labels the halves 0 and 2; round 1
// pulls vertex 1's label 0 into vertex 2 (the one boundary update) and
// sweeps it to vertex 3; round 2 lowers nothing and ends the solve.
TEST(ShardedSolve, PathExchangeCountsRoundsAndBoundaryUpdates) {
  const CsrGraph g = graph::build_csr(gen::path_edges(4)).graph;
  const ShardedGraph sharded = partition_shards(g, 2);
  ASSERT_EQ(sharded.shards[0].end, 2u);
  const ShardedCcResult result = sharded_cc(sharded);
  const auto labels = result.label_span();
  EXPECT_EQ(std::vector<Label>(labels.begin(), labels.end()),
            (std::vector<Label>{0, 0, 0, 0}));
  EXPECT_EQ(result.stats.rounds, 3);
  EXPECT_EQ(result.stats.boundary_updates, 1u);
}

// Gauss–Seidel across shards: shards {0,1}, {2,3}, {4,5} and the path
// 1-0-4-3-5 plus 2-3.  The minimum's label 0 crosses forwards into
// shard 2 (vertex 4, round 1), backwards into shard 1 (vertex 3, round
// 2) and forwards again into shard 2 (vertex 5).  The last hop reads
// vertex 3's label in the round shard 1 lowered it, so round 3 lowers
// nothing and ends the solve; a pull that saw only the labels of the
// round before would need a fifth round for it.  The four updates are
// vertices 4 and 5 in round 1, then 3 and 5 in round 2.
TEST(ShardedSolve, BoundaryPullSeesLabelsLoweredThisRound) {
  graph::EdgeList edges;
  edges.push_back({0, 1});
  edges.push_back({0, 4});
  edges.push_back({2, 3});
  edges.push_back({3, 4});
  edges.push_back({3, 5});
  const CsrGraph g = graph::build_csr(edges, 6).graph;
  const ShardedGraph sharded = partition_shards(g, 3);
  ASSERT_EQ(sharded.shards[0].end, 2u);
  ASSERT_EQ(sharded.shards[1].end, 4u);
  const ShardedCcResult result = sharded_cc(sharded);
  const auto labels = result.label_span();
  EXPECT_EQ(std::vector<Label>(labels.begin(), labels.end()),
            std::vector<Label>(6, 0));
  EXPECT_EQ(result.stats.rounds, 4);
  EXPECT_EQ(result.stats.boundary_updates, 4u);
}

TEST(ShardedSolve, OracleAcceptsCorrectSolveAndDescribesShards) {
  const testing::Scenario scenario =
      testing::scenario_from_spec("two_clique_bridge:3");
  const CsrGraph g = testing::build_scenario_graph(scenario);
  const std::vector<Label> reference = testing::reference_partition(g);
  testing::RunSetup setup;
  setup.shards = 3;
  EXPECT_FALSE(testing::check_sharded_solve(g, reference, setup)
                   .has_value());
  EXPECT_NE(setup.describe().find("shards=3"), std::string::npos);
  // A wrong reference must be flagged, proving the oracle actually
  // compares partitions.
  std::vector<Label> wrong(g.num_vertices(), 0);
  if (core::count_components(reference) > 1) {
    const auto failure = testing::check_sharded_solve(g, wrong, setup);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->algorithm, "sharded");
  }
}

// ---------------------------------------------------------------------
// Manifest + sidecar persistence.

class ShardTempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("thrifty_shard_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string read_text(const std::string& file) const {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void write_text(const std::string& file, const std::string& text) const {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }

  std::filesystem::path dir_;
};

std::optional<IoErrorKind> manifest_verdict(const std::string& file) {
  try {
    (void)read_shard_manifest(file);
    return std::nullopt;
  } catch (const IoError& e) {
    return e.kind();
  }
}

TEST_F(ShardTempDir, SnapshotRoundTripsExactly) {
  const CsrGraph g = small_rmat();
  const ShardedGraph original = partition_shards(g, 4);
  write_sharded_snapshot(path("g.shards"), original);

  const ShardManifest manifest = read_shard_manifest(path("g.shards"));
  EXPECT_EQ(manifest.num_vertices, original.num_vertices);
  EXPECT_EQ(manifest.num_directed_edges, original.num_directed_edges);
  ASSERT_EQ(manifest.num_shards(), original.num_shards());
  EXPECT_EQ(manifest.total_cut_pairs(), original.total_cut_pairs());

  for (int k = 0; k < original.num_shards(); ++k) {
    const Shard& a = original.shards[static_cast<std::size_t>(k)];
    const ShardMeta& meta = manifest.shards[static_cast<std::size_t>(k)];
    const Shard b = read_shard_cuts(meta, manifest.num_vertices);
    const CsrGraph local = io::read_csr_file(meta.csr_path);
    SCOPED_TRACE("shard " + std::to_string(k));
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.cut_offsets, b.cut_offsets);
    EXPECT_EQ(a.cut_ids, b.cut_ids);
    ASSERT_EQ(a.local.num_vertices(), local.num_vertices());
    ASSERT_EQ(a.local.num_directed_edges(), local.num_directed_edges());
    EXPECT_TRUE(std::equal(a.local.offsets().begin(),
                           a.local.offsets().end(),
                           local.offsets().begin()));
    EXPECT_TRUE(std::equal(a.local.neighbor_array().begin(),
                           a.local.neighbor_array().end(),
                           local.neighbor_array().begin()));
  }

  // Streaming solve over the manifest agrees with the in-memory solve.
  const ShardedCcResult streamed = sharded_cc(manifest);
  const ShardedCcResult direct = sharded_cc(original);
  EXPECT_TRUE(core::same_partition(streamed.label_span(),
                                   direct.label_span()));
}

TEST_F(ShardTempDir, ManifestCorruptionsRejectWithTypedKinds) {
  const CsrGraph g = small_rmat();
  write_sharded_snapshot(path("g.shards"), partition_shards(g, 3));
  const std::string valid = read_text(path("g.shards"));

  const auto expect_kind = [&](const std::string& name,
                               const std::string& text,
                               IoErrorKind expected) {
    write_text(path("bad.shards"), text);
    const auto kind = manifest_verdict(path("bad.shards"));
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_EQ(*kind, expected) << name;
  };

  expect_kind("bad banner", "# not a manifest\n" + valid,
              IoErrorKind::kBadMagic);
  {
    // The slot-table format's banner: its sidecar ids were slots.
    std::string v1 = valid;
    const auto pos = v1.find("manifest v2");
    ASSERT_EQ(pos, v1.find('\n') - 11);
    v1.replace(pos, 11, "manifest v1");
    expect_kind("v1 manifest", v1, IoErrorKind::kBadMagic);
  }

  {
    // Drop the last shard line: fewer lines than the header promises.
    std::string truncated = valid;
    truncated.pop_back();  // trailing newline
    truncated.resize(truncated.rfind('\n') + 1);
    expect_kind("missing shard line", truncated, IoErrorKind::kTruncated);
  }

  expect_kind("trailing garbage", valid + "stray line\n",
              IoErrorKind::kTrailingGarbage);

  {
    std::string bad_line = valid;
    const auto pos = bad_line.find("shard 0");
    ASSERT_NE(pos, std::string::npos);
    bad_line.replace(pos, 7, "shard x");
    expect_kind("unparsable shard line", bad_line,
                IoErrorKind::kMalformedLine);
  }

  {
    // Inflate the header edge count so the per-shard sums disagree.
    std::string bad_sum = valid;
    const auto pos = bad_sum.find("directed_edges ");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = bad_sum.find('\n', pos);
    bad_sum.replace(pos, eol - pos, "directed_edges 999999999");
    expect_kind("edge sum mismatch", bad_sum, IoErrorKind::kCountMismatch);
  }

  {
    // Break range contiguity: shard 0 claiming [1, ...) leaves vertex 0
    // unowned.
    std::string gap = valid;
    const auto pos = gap.find("shard 0 ");
    ASSERT_NE(pos, std::string::npos);
    gap.replace(pos, 8, "shard 1 ");
    expect_kind("non-contiguous ranges", gap,
                IoErrorKind::kInvariantViolation);
  }

  EXPECT_EQ(manifest_verdict(path("nope.shards")),
            IoErrorKind::kOpenFailed);
}

TEST_F(ShardTempDir, CutSidecarCorruptionsRejectWithTypedKinds) {
  // Two shards of 300k vertices each with no intra edge: vertex i is
  // joined to remote vertices kHalf + i and kHalf + (i + 1) % kHalf, so
  // shard 0's sidecar holds 2.4 MB of offsets and 2.4 MB of cut ids —
  // several read chunks of each, above the parallel-read size.
  constexpr VertexId kHalf = 300000;
  graph::EdgeList edges;
  for (VertexId i = 0; i < kHalf; ++i) {
    edges.push_back({i, kHalf + i});
    edges.push_back({i, kHalf + (i + 1) % kHalf});
  }
  write_sharded_snapshot(
      path("g.shards"),
      partition_shards(graph::build_csr(edges, 2 * kHalf).graph, 2));
  const ShardManifest manifest = read_shard_manifest(path("g.shards"));
  ShardMeta meta = manifest.shards[0];
  ASSERT_EQ(meta.num_local(), kHalf);
  ASSERT_EQ(meta.cut_pair_count, 2u * kHalf);
  const std::string valid = read_text(meta.cut_path);
  ASSERT_GT(valid.size(), 2 * io::kSnapshotReadChunkBytes);
  meta.cut_path = path("bad.cut");

  constexpr std::uint64_t kHeader = 32;
  const std::uint64_t pairs = meta.cut_pair_count;
  const std::uint64_t ids_at = kHeader + (kHalf + 1) * 8ull;
  const std::uint64_t offsets_per_chunk = io::kSnapshotReadChunkBytes / 8;
  const auto with_u64 = [&](std::uint64_t at, std::uint64_t value) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + at, &value, 8);
    return bytes;
  };
  const auto id_at = [&](std::uint64_t e) { return ids_at + e * 4; };
  const auto with_ids = [&](std::vector<std::pair<std::uint64_t, VertexId>>
                                edits) {
    std::string bytes = valid;
    for (const auto& [e, id] : edits) {
      std::memcpy(bytes.data() + id_at(e), &id, 4);
    }
    return bytes;
  };
  const auto with_offset_bump = [&](std::uint64_t v) {
    // offsets[v] above offsets[v + 1] (= 2v + 2): the violation is at v.
    return with_u64(kHeader + v * 8, 2 * v + 5);
  };
  struct Case {
    const char* name;
    std::string bytes;
    IoErrorKind kind;
    std::uint64_t byte_offset;
    const char* message = "";  ///< must appear in the error message
  };
  std::vector<Case> cases;
  {
    std::string bad_magic = valid;
    bad_magic[0] = 'X';
    cases.push_back({"bad magic", bad_magic, IoErrorKind::kBadMagic, 0});
    for (const char version : {'1', '2'}) {
      std::string old_format = valid;
      old_format[7] = version;
      cases.push_back({version == '1' ? "THRFTYS1 file" : "THRFTYS2 file",
                       old_format, IoErrorKind::kBadMagic, 0,
                       "graph_convert --shards"});
    }
  }
  cases.push_back({"global vertex count mismatch",
                   with_u64(16, manifest.num_vertices + 1),
                   IoErrorKind::kCountMismatch, 8});
  cases.push_back({"truncated", valid.substr(0, valid.size() - 3),
                   IoErrorKind::kTruncated, 8});
  cases.push_back({"trailing garbage", valid + "x",
                   IoErrorKind::kTrailingGarbage, valid.size()});
  cases.push_back({"n_local mismatch", with_u64(8, kHalf + 1),
                   IoErrorKind::kCountMismatch, 8});
  cases.push_back({"non-monotone offset inside a later chunk",
                   with_offset_bump(offsets_per_chunk + 17),
                   IoErrorKind::kInvariantViolation,
                   kHeader + (offsets_per_chunk + 17) * 8});
  cases.push_back({"non-monotone offset across a chunk seam",
                   with_offset_bump(offsets_per_chunk - 1),
                   IoErrorKind::kInvariantViolation,
                   kHeader + (offsets_per_chunk - 1) * 8});
  cases.push_back({"offsets[n_local] != pairs",
                   with_u64(kHeader + kHalf * 8ull, pairs + 1),
                   IoErrorKind::kInvariantViolation, kHeader + kHalf * 8ull});
  const VertexId n = manifest.num_vertices;
  const std::uint64_t ids_per_chunk = io::kSnapshotReadChunkBytes / 4;
  cases.push_back({"cut id >= n placed last", with_ids({{pairs - 1, n}}),
                   IoErrorKind::kIndexOutOfRange, id_at(pairs - 1)});
  cases.push_back({"cut id inside the owner's range",
                   with_ids({{ids_per_chunk + 5, kHalf - 1}}),
                   IoErrorKind::kIndexOutOfRange, id_at(ids_per_chunk + 5),
                   "own range"});
  // Both kinds in one file: the error names whichever comes first.
  cases.push_back({"own-range id before an id >= n",
                   with_ids({{pairs - 1, n}, {ids_per_chunk + 5, 0}}),
                   IoErrorKind::kIndexOutOfRange, id_at(ids_per_chunk + 5),
                   "own range"});
  cases.push_back({"id >= n before an own-range id",
                   with_ids({{ids_per_chunk + 5, n}, {pairs - 1, 0}}),
                   IoErrorKind::kIndexOutOfRange, id_at(ids_per_chunk + 5)});

  for (const Case& c : cases) {
    write_text(meta.cut_path, c.bytes);
    for (const int threads : {1, 2, 4}) {
      const support::ThreadCountGuard guard(threads);
      SCOPED_TRACE(std::string(c.name) + ", t=" + std::to_string(threads));
      try {
        (void)read_shard_cuts(meta, manifest.num_vertices);
        ADD_FAILURE() << "accepted";
      } catch (const IoError& e) {
        EXPECT_EQ(e.kind(), c.kind);
        EXPECT_EQ(e.byte_offset(), c.byte_offset);
        EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos);
      }
    }
  }
  write_text(meta.cut_path, valid);
  const Shard shard = read_shard_cuts(meta, manifest.num_vertices);
  EXPECT_EQ(shard.cut_ids.size(), pairs);
}

TEST_F(ShardTempDir, MissingPayloadFileIsTypedOpenFailed) {
  const CsrGraph g = small_rmat();
  write_sharded_snapshot(path("g.shards"), partition_shards(g, 2));
  const ShardManifest manifest = read_shard_manifest(path("g.shards"));
  std::filesystem::remove(manifest.shards[1].csr_path);
  try {
    (void)sharded_cc(manifest);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kOpenFailed);
  }
}

// ---------------------------------------------------------------------
// Streaming residency policy.

TEST_F(ShardTempDir, TightBudgetEvictsAndStillMatchesReference) {
  const CsrGraph g = small_rmat(12);
  const std::vector<Label> reference = testing::reference_partition(g);
  const ShardedGraph sharded = partition_shards(g, 6);
  write_sharded_snapshot(path("g.shards"), sharded);
  const ShardManifest manifest = read_shard_manifest(path("g.shards"));

  std::uint64_t total_bytes = 0;
  for (const ShardMeta& meta : manifest.shards) {
    total_bytes += meta.csr_bytes();
  }
  ShardedCcOptions options;
  // Room for roughly one shard (clamped up to the largest anyway):
  // nowhere near the full set, so the window must cycle.
  options.memory_budget_bytes = manifest.max_shard_csr_bytes();
  ASSERT_LT(options.memory_budget_bytes, total_bytes);

  const ShardedCcResult result = sharded_cc(manifest, options);
  EXPECT_TRUE(core::same_partition(result.label_span(), reference));
  EXPECT_GT(result.stats.evictions, 0u);
  EXPECT_GT(result.stats.load_ms, 0.0);
  EXPECT_GT(result.stats.shard_loads,
            static_cast<std::uint64_t>(manifest.num_shards()));
  // Eviction runs before each load, so the window never exceeds the
  // (clamped) budget.
  EXPECT_LE(result.stats.peak_window_bytes,
            std::max(options.memory_budget_bytes,
                     manifest.max_shard_csr_bytes()));

  // Unlimited budget: every shard loads exactly once, nothing evicts.
  const ShardedCcResult roomy = sharded_cc(manifest);
  EXPECT_TRUE(core::same_partition(roomy.label_span(), reference));
  EXPECT_EQ(roomy.stats.evictions, 0u);
  EXPECT_EQ(roomy.stats.shard_loads,
            static_cast<std::uint64_t>(manifest.num_shards()));

  // The in-memory variant loads nothing.
  EXPECT_EQ(sharded_cc(sharded).stats.load_ms, 0.0);
}

// Four disjoint 50-cliques in four equal shards under a one-shard budget:
// no cut edge, so the solve is round 0 alone and maps each shard once.
// The prefetch of shard k + 1 runs only once shard k is mapped, so it
// never maps a shard that the next load evicts at once.
TEST_F(ShardTempDir, PrefetchLoadsNothingTheNextLoadEvicts) {
  constexpr VertexId kClique = 50;
  constexpr int kShards = 4;
  graph::EdgeList edges;
  for (VertexId c = 0; c < kShards; ++c) {
    for (const graph::Edge& e : gen::clique_edges(kClique)) {
      edges.push_back({c * kClique + e.u, c * kClique + e.v});
    }
  }
  const ShardedGraph sharded = partition_shards(
      graph::build_csr(edges, kShards * kClique).graph, kShards);
  for (int k = 0; k < kShards; ++k) {
    ASSERT_EQ(sharded.shards[static_cast<std::size_t>(k)].begin,
              static_cast<VertexId>(k) * kClique);
  }
  ASSERT_EQ(sharded.total_cut_pairs(), 0u);
  write_sharded_snapshot(path("g.shards"), sharded);
  const ShardManifest manifest = read_shard_manifest(path("g.shards"));

  ShardedCcOptions options;
  options.memory_budget_bytes = manifest.max_shard_csr_bytes();
  const ShardedCcResult result = sharded_cc(manifest, options);
  EXPECT_EQ(result.stats.rounds, 1);
  EXPECT_EQ(result.stats.shard_loads, static_cast<std::uint64_t>(kShards));
  EXPECT_EQ(result.stats.evictions, static_cast<std::uint64_t>(kShards - 1));
  EXPECT_EQ(core::count_components(result.label_span()),
            static_cast<std::uint64_t>(kShards));
}

// ---------------------------------------------------------------------
// Repro-file forward compatibility.

TEST(ShardRepro, ShardsKeyRoundTrips) {
  testing::Repro repro;
  repro.scenario_spec = "hub_star:1";
  repro.oracle = "cross_algorithm";
  repro.algorithm = "sharded";
  repro.detail = "test";
  repro.setup.shards = 5;
  repro.num_vertices = 2;
  repro.edges = {{0, 1}};

  std::stringstream stream;
  testing::write_repro(stream, repro);
  EXPECT_NE(stream.str().find("shards 5"), std::string::npos);
  const testing::Repro back = testing::read_repro(stream);
  EXPECT_EQ(back.setup.shards, 5);
  EXPECT_EQ(back.algorithm, "sharded");
}

TEST(ShardRepro, LegacyFileWithoutShardsKeyDefaultsToOne) {
  testing::Repro repro;
  repro.scenario_spec = "hub_star:1";
  repro.oracle = "cross_algorithm";
  repro.algorithm = "thrifty";
  repro.num_vertices = 2;
  repro.edges = {{0, 1}};

  std::stringstream stream;
  testing::write_repro(stream, repro);
  std::string text = stream.str();
  const auto pos = text.find("shards ");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);

  std::istringstream legacy(text);
  const testing::Repro back = testing::read_repro(legacy);
  EXPECT_EQ(back.setup.shards, 1);
}

}  // namespace
}  // namespace thrifty::shard
