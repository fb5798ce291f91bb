// Tests for the zero-copy mmap CSR loader: byte-for-byte agreement with
// the stream loader on valid snapshots, identical typed-error verdicts
// on malformed ones (every truncation point of a snapshot — the no-SIGBUS
// contract), keep-alive semantics of mapped graph views, and algorithm
// execution over mapped CSR arrays.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/io_error.hpp"
#include "io/mmap_io.hpp"
#include "support/parallel.hpp"

namespace thrifty::io {
namespace {

using graph::CsrGraph;

class MmapTempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("thrifty_mmap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string write_bytes(const std::string& name,
                          const std::string& bytes) const {
    const std::string p = path(name);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  std::filesystem::path dir_;
};

CsrGraph small_rmat() {
  gen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

std::string snapshot_bytes(const CsrGraph& graph) {
  std::ostringstream out(std::ios::binary);
  write_csr(out, graph);
  return out.str();
}

/// One loader's verdict on a file: accepted, or the typed error kind.
struct Verdict {
  bool accepted = false;
  std::optional<IoErrorKind> kind;
};

Verdict verdict_of(const std::string& file,
                   CsrGraph (*loader)(const std::string&)) {
  try {
    (void)loader(file);
    return {true, std::nullopt};
  } catch (const IoError& e) {
    return {false, e.kind()};
  }
}

CsrGraph load_stream(const std::string& file) {
  return read_csr_file(file);
}
CsrGraph load_mmap(const std::string& file) {
  return read_csr_mmap(file);
}

void expect_identical_arrays(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges());
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin(), b.offsets().end()));
  EXPECT_TRUE(std::equal(a.neighbor_array().begin(),
                         a.neighbor_array().end(),
                         b.neighbor_array().begin(),
                         b.neighbor_array().end()));
}

TEST_F(MmapTempDir, MappedGraphMatchesStreamLoader) {
  const CsrGraph original = small_rmat();
  write_csr_file(path("g.bin"), original);
  const CsrGraph streamed = read_csr_file(path("g.bin"));
  const CsrGraph mapped = read_csr_mmap(path("g.bin"));
  expect_identical_arrays(streamed, mapped);
  EXPECT_TRUE(streamed.owns_memory());
  if (mmap_supported()) {
    EXPECT_FALSE(mapped.owns_memory());
  }
}

TEST_F(MmapTempDir, EmptyGraphSnapshotMapsCleanly) {
  const CsrGraph empty = graph::build_csr(graph::EdgeList{}, 0).graph;
  write_csr_file(path("empty.bin"), empty);
  const CsrGraph mapped = read_csr_mmap(path("empty.bin"));
  EXPECT_EQ(mapped.num_vertices(), 0u);
  EXPECT_EQ(mapped.num_directed_edges(), 0u);
}

TEST_F(MmapTempDir, MappedViewSurvivesCopyAndMove) {
  const CsrGraph original = small_rmat();
  write_csr_file(path("g.bin"), original);
  CsrGraph copy;
  {
    const CsrGraph mapped = read_csr_mmap(path("g.bin"));
    copy = mapped;  // shares the keep-alive mapping
  }
  // The first view is gone; the mapping must still be alive through the
  // copy's keep-alive reference.
  expect_identical_arrays(original, copy);

  CsrGraph moved = std::move(copy);
  expect_identical_arrays(original, moved);
}

TEST_F(MmapTempDir, AutoDispatchHonorsPreference) {
  write_csr_file(path("g.bin"), small_rmat());
  const CsrGraph streamed = read_csr_file_auto(path("g.bin"), false);
  EXPECT_TRUE(streamed.owns_memory());
  const CsrGraph mapped = read_csr_file_auto(path("g.bin"), true);
  if (mmap_supported()) {
    EXPECT_FALSE(mapped.owns_memory());
  }
  expect_identical_arrays(streamed, mapped);
}

TEST_F(MmapTempDir, EveryTruncationPointRejectsIdentically) {
  // The no-SIGBUS contract, exhaustively: for every prefix of a valid
  // snapshot, the mmap loader must return the stream loader's exact
  // verdict — never crash, never accept what the stream loader rejects.
  const CsrGraph g = graph::build_csr(gen::cycle_edges(40)).graph;
  const std::string bytes = snapshot_bytes(g);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::string file =
        write_bytes("prefix.bin", bytes.substr(0, len));
    const Verdict streamed = verdict_of(file, &load_stream);
    const Verdict mapped = verdict_of(file, &load_mmap);
    ASSERT_EQ(streamed.accepted, mapped.accepted)
        << "prefix length " << len;
    ASSERT_EQ(streamed.kind, mapped.kind) << "prefix length " << len;
    if (len == bytes.size()) {
      EXPECT_TRUE(streamed.accepted);
    } else {
      EXPECT_FALSE(streamed.accepted) << "prefix length " << len;
    }
  }
}

TEST_F(MmapTempDir, CorruptionsRejectWithMatchingTypedKinds) {
  const CsrGraph g = graph::build_csr(gen::cycle_edges(64)).graph;
  const std::string valid = snapshot_bytes(g);

  struct Case {
    const char* name;
    std::string bytes;
    IoErrorKind expected;
  };
  std::vector<Case> cases;
  {
    std::string bad_magic = valid;
    bad_magic[0] = 'X';
    cases.push_back({"bad magic", bad_magic, IoErrorKind::kBadMagic});

    std::string garbage = valid + "extra";
    cases.push_back(
        {"trailing garbage", garbage, IoErrorKind::kTrailingGarbage});

    std::string huge_n = valid;
    const std::uint64_t n_huge = ~std::uint64_t{0} >> 1;
    std::memcpy(huge_n.data() + 8, &n_huge, 8);
    cases.push_back(
        {"huge vertex count", huge_n, IoErrorKind::kHeaderBounds});

    std::string non_monotone = valid;
    // Swap the first two offsets (both nonzero for a cycle graph).
    char tmp[8];
    std::memcpy(tmp, non_monotone.data() + 24, 8);
    std::memcpy(non_monotone.data() + 24, non_monotone.data() + 32, 8);
    std::memcpy(non_monotone.data() + 32, tmp, 8);
    cases.push_back({"non-monotone offsets", non_monotone,
                     IoErrorKind::kInvariantViolation});

    std::string bad_neighbor = valid;
    // Last 4 bytes are a neighbor id; stamp an out-of-range value.
    const std::uint32_t out_of_range = 0x7fffffff;
    std::memcpy(bad_neighbor.data() + bad_neighbor.size() - 4,
                &out_of_range, 4);
    cases.push_back({"out-of-range neighbor", bad_neighbor,
                     IoErrorKind::kInvariantViolation});
  }

  for (const Case& c : cases) {
    const std::string file = write_bytes("corrupt.bin", c.bytes);
    const Verdict streamed = verdict_of(file, &load_stream);
    const Verdict mapped = verdict_of(file, &load_mmap);
    EXPECT_FALSE(streamed.accepted) << c.name;
    EXPECT_FALSE(mapped.accepted) << c.name;
    EXPECT_EQ(streamed.kind, mapped.kind) << c.name;
    ASSERT_TRUE(streamed.kind.has_value()) << c.name;
    EXPECT_EQ(*streamed.kind, c.expected) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Three-loader parity on snapshots that span several read chunks and take
// read_csr_file's parallel path: read_csr_file (pread), read_csr over a
// file stream and read_csr_mmap must return identical arrays, or throw
// the same IoError kind at the same byte offset, at every thread count.

/// Bytes of a ring snapshot (vertex v adjacent to v - 1 and v + 1),
/// written directly so the test controls every byte.
std::string ring_snapshot(std::uint64_t n) {
  const std::uint64_t m = 2 * n;
  std::string bytes(CsrSnapshotLayout::neighbors_begin(n) + m * 4, '\0');
  std::memcpy(bytes.data(), CsrSnapshotLayout::kMagic.data(), 8);
  std::memcpy(bytes.data() + 8, &n, 8);
  std::memcpy(bytes.data() + 16, &m, 8);
  for (std::uint64_t v = 0; v <= n; ++v) {
    const std::uint64_t offset = 2 * v;
    std::memcpy(bytes.data() + CsrSnapshotLayout::offsets_begin() + v * 8,
                &offset, 8);
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto pred = static_cast<graph::VertexId>((v + n - 1) % n);
    const auto succ = static_cast<graph::VertexId>((v + 1) % n);
    const std::uint64_t at = CsrSnapshotLayout::neighbors_begin(n) + v * 8;
    std::memcpy(bytes.data() + at, &pred, 4);
    std::memcpy(bytes.data() + at + 4, &succ, 4);
  }
  return bytes;
}

/// One loader's outcome: the graph, or the error's kind and offset.
struct Outcome {
  std::optional<CsrGraph> graph;
  std::optional<IoErrorKind> kind;
  std::uint64_t byte_offset = IoError::kNoPosition;
};

template <typename Load>
Outcome outcome_of(Load&& load) {
  Outcome outcome;
  try {
    outcome.graph.emplace(load());
  } catch (const IoError& e) {
    outcome.kind = e.kind();
    outcome.byte_offset = e.byte_offset();
  }
  return outcome;
}

/// Loads `file` through all three loaders at `threads` threads, expects
/// them to agree, and returns the pread loader's outcome.
Outcome expect_loaders_agree(const std::string& file, int threads,
                             const std::string& name) {
  const support::ThreadCountGuard guard(threads);
  const Outcome pread = outcome_of([&] { return read_csr_file(file); });
  const Outcome stream = outcome_of([&] {
    std::ifstream in(file, std::ios::binary);
    return read_csr(in, file);
  });
  const Outcome mapped = outcome_of([&] { return read_csr_mmap(file); });
  for (const Outcome* other : {&stream, &mapped}) {
    const char* which = other == &stream ? "stream" : "mmap";
    EXPECT_EQ(pread.kind, other->kind)
        << name << ", " << which << ", t=" << threads;
    EXPECT_EQ(pread.byte_offset, other->byte_offset)
        << name << ", " << which << ", t=" << threads;
    EXPECT_EQ(pread.graph.has_value(), other->graph.has_value())
        << name << ", " << which << ", t=" << threads;
    if (pread.graph && other->graph) {
      expect_identical_arrays(*pread.graph, *other->graph);
    }
  }
  return pread;
}

TEST_F(MmapTempDir, ThreeLoadersAgreeAcrossReadChunks) {
  // 400k vertices: 3.2 MB of offsets and 3.2 MB of neighbours, several
  // read chunks of each and above the parallel-read size.
  const std::uint64_t n = 400000;
  const std::string valid = ring_snapshot(n);
  const std::uint64_t ids_per_chunk = kSnapshotReadChunkBytes / 4;
  const std::uint64_t neighbors_at = CsrSnapshotLayout::neighbors_begin(n);
  ASSERT_GT(2 * n, 2 * ids_per_chunk);

  const auto with_id = [&](std::uint64_t edge, graph::VertexId id) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + neighbors_at + edge * 4, &id, 4);
    return bytes;
  };
  struct Case {
    const char* name;
    std::string bytes;
    std::optional<IoErrorKind> kind;  ///< nullopt: must load
    std::uint64_t byte_offset = IoError::kNoPosition;
  };
  std::vector<Case> cases;
  cases.push_back({"valid", valid, std::nullopt});
  const auto with_offset_bump = [&](std::uint64_t v) {
    // offsets[v] above offsets[v + 1]: the violation is at vertex v.
    std::string bytes = valid;
    const std::uint64_t big = 2 * v + 5;
    std::memcpy(bytes.data() + CsrSnapshotLayout::offsets_begin() + v * 8,
                &big, 8);
    return bytes;
  };
  const std::uint64_t offsets_per_chunk = kSnapshotReadChunkBytes / 8;
  for (const std::uint64_t v :
       {offsets_per_chunk + 17, offsets_per_chunk - 1}) {
    cases.push_back({v == offsets_per_chunk - 1
                         ? "non-monotone offset across a chunk boundary"
                         : "non-monotone offset inside a later chunk",
                     with_offset_bump(v), IoErrorKind::kInvariantViolation,
                     CsrSnapshotLayout::offsets_begin() + v * 8});
  }
  cases.push_back({"out-of-range id first in a later chunk",
                   with_id(ids_per_chunk, static_cast<graph::VertexId>(n)),
                   IoErrorKind::kInvariantViolation,
                   neighbors_at + ids_per_chunk * 4});
  cases.push_back({"out-of-range id last",
                   with_id(2 * n - 1, 0xFFFFFFFFu),
                   IoErrorKind::kInvariantViolation,
                   neighbors_at + (2 * n - 1) * 4});
  cases.push_back({"truncated neighbour tail",
                   valid.substr(0, valid.size() - 6),
                   IoErrorKind::kTruncated, 8});
  cases.push_back({"trailing garbage", valid + "junk",
                   IoErrorKind::kTrailingGarbage, valid.size()});
  cases.push_back({"n = 0, m = 0", ring_snapshot(0), std::nullopt});

  for (const Case& c : cases) {
    const std::string file = write_bytes("parity.bin", c.bytes);
    for (const int threads : {1, 2, 4}) {
      const Outcome got = expect_loaders_agree(file, threads, c.name);
      EXPECT_EQ(got.kind, c.kind) << c.name << ", t=" << threads;
      if (c.kind) {
        EXPECT_EQ(got.byte_offset, c.byte_offset)
            << c.name << ", t=" << threads;
      } else if (got.graph) {
        const std::uint64_t vertices = c.bytes == valid ? n : 0;
        EXPECT_EQ(got.graph->num_vertices(), vertices) << c.name;
      }
    }
  }
}

TEST_F(MmapTempDir, MissingFileIsTypedOpenFailed) {
  const Verdict mapped = verdict_of(path("nope.bin"), &load_mmap);
  EXPECT_FALSE(mapped.accepted);
  ASSERT_TRUE(mapped.kind.has_value());
  EXPECT_EQ(*mapped.kind, IoErrorKind::kOpenFailed);
}

TEST_F(MmapTempDir, AlgorithmsRunOnMappedGraphs) {
  const CsrGraph original = small_rmat();
  write_csr_file(path("g.bin"), original);
  const CsrGraph mapped = read_csr_mmap(path("g.bin"));

  const auto* thrifty_entry = baselines::find_algorithm("thrifty");
  ASSERT_NE(thrifty_entry, nullptr);
  const core::CcResult from_mapped =
      baselines::run_algorithm(*thrifty_entry, mapped, {});
  const core::CcResult from_heap =
      baselines::run_algorithm(*thrifty_entry, original, {});
  EXPECT_TRUE(core::same_partition(from_mapped.label_span(),
                                   from_heap.label_span()));
}

TEST_F(MmapTempDir, MadviseOptionsDoNotChangeResults) {
  write_csr_file(path("g.bin"), small_rmat());
  MmapOptions options;
  options.sequential = false;
  options.willneed = false;
  options.hugepages = true;
  const CsrGraph tuned = read_csr_mmap(path("g.bin"), options);
  const CsrGraph plain = read_csr_mmap(path("g.bin"));
  expect_identical_arrays(tuned, plain);
}

}  // namespace
}  // namespace thrifty::io
