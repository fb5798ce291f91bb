// Tests for src/io: round-trips and malformed-input rejection for the
// edge-list, binary CSR and Matrix Market formats.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/edge_list_io.hpp"
#include "io/io_error.hpp"
#include "io/matrix_market_io.hpp"

namespace thrifty::io {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("thrifty_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST(EdgeListIo, ParsesSimpleInput) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  const EdgeList edges = read_edge_list(in);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[2], (Edge{2, 0}));
}

TEST(EdgeListIo, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# SNAP style comment\n% KONECT style comment\n\n   \n0 1\n  3\t4\n");
  const EdgeList edges = read_edge_list(in);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[1], (Edge{3, 4}));
}

TEST(EdgeListIo, RejectsMalformedLines) {
  std::istringstream missing("0\n");
  EXPECT_THROW((void)read_edge_list(missing), std::runtime_error);
  std::istringstream garbage("a b\n");
  EXPECT_THROW((void)read_edge_list(garbage), std::runtime_error);
}

TEST(EdgeListIo, WriteThenReadRoundTrips) {
  const EdgeList edges{{5, 6}, {7, 8}, {0, 1}};
  std::ostringstream out;
  write_edge_list(out, edges);
  std::istringstream in(out.str());
  EXPECT_EQ(read_edge_list(in), edges);
}

TEST_F(TempDir, EdgeListFileRoundTrip) {
  const EdgeList edges{{1, 2}, {3, 4}};
  write_edge_list_file(path("graph.el"), edges);
  EXPECT_EQ(read_edge_list_file(path("graph.el")), edges);
}

TEST_F(TempDir, EdgeListMissingFileThrows) {
  EXPECT_THROW((void)read_edge_list_file(path("nope.el")),
               std::runtime_error);
}

TEST_F(TempDir, BinaryCsrRoundTripsExactly) {
  gen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  const CsrGraph original =
      graph::build_csr(gen::rmat_edges(params)).graph;
  write_csr_file(path("graph.bin"), original);
  const CsrGraph loaded = read_csr_file(path("graph.bin"));
  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_directed_edges(), original.num_directed_edges());
  for (graph::VertexId v = 0; v < original.num_vertices(); ++v) {
    const auto a = original.neighbors(v);
    const auto b = loaded.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST_F(TempDir, BinaryRejectsBadMagic) {
  {
    std::ofstream out(path("bad.bin"), std::ios::binary);
    out << "NOTAGRAPHFILE-------------------";
  }
  EXPECT_THROW((void)read_csr_file(path("bad.bin")), std::runtime_error);
}

TEST_F(TempDir, BinaryRejectsTruncatedFile) {
  const CsrGraph g = graph::build_csr(gen::cycle_edges(100)).graph;
  write_csr_file(path("full.bin"), g);
  // Truncate to half.
  const auto size = std::filesystem::file_size(path("full.bin"));
  std::filesystem::resize_file(path("full.bin"), size / 2);
  EXPECT_THROW((void)read_csr_file(path("full.bin")), std::runtime_error);
}

TEST(MatrixMarketIo, ParsesSymmetricPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "4 4 3\n"
      "2 1\n"
      "3 2\n"
      "4 1\n");
  const MatrixMarketGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_vertices, 4u);
  ASSERT_EQ(g.edges.size(), 3u);
  EXPECT_EQ(g.edges[0], (Edge{1, 0}));  // 1-based -> 0-based
}

TEST(MatrixMarketIo, IgnoresValuesOnEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 1\n"
      "2 1 3.25\n");
  const MatrixMarketGraph g = read_matrix_market(in);
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_EQ(g.edges[0], (Edge{1, 0}));
}

TEST(MatrixMarketIo, RejectsMissingHeader) {
  std::istringstream in("4 4 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketIo, RejectsNonSquare) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n3 4 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketIo, RejectsOutOfRangeIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketIo, RejectsShortFile) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 2\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketIo, WriteThenReadRoundTrips) {
  const EdgeList edges{{0, 1}, {2, 3}, {1, 3}};
  std::ostringstream out;
  write_matrix_market(out, edges, 4);
  std::istringstream in(out.str());
  const MatrixMarketGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_vertices, 4u);
  ASSERT_EQ(g.edges.size(), 3u);
  // Entries are canonicalised to lower-triangle order (hi, lo).
  EXPECT_EQ(g.edges[0], (Edge{1, 0}));
  EXPECT_EQ(g.edges[1], (Edge{3, 2}));
  EXPECT_EQ(g.edges[2], (Edge{3, 1}));
}

TEST_F(TempDir, MatrixMarketFileRoundTrip) {
  const EdgeList edges{{0, 5}, {3, 2}};
  write_matrix_market_file(path("g.mtx"), edges, 6);
  const MatrixMarketGraph g = read_matrix_market_file(path("g.mtx"));
  EXPECT_EQ(g.num_vertices, 6u);
  EXPECT_EQ(g.edges.size(), 2u);
}

// ---------------------------------------------------------------------------
// Typed error paths: each documented corrupt-input class must surface as
// an IoError with the intended kind (not just "some runtime_error"), so
// callers and the fuzz harness can tell deliberate rejection from
// accidental control flow.

/// Runs `fn`, expecting it to throw IoError; returns the caught error.
IoError expect_io_error(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const IoError& e) {
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw non-IoError: " << e.what();
    return IoError(IoErrorKind::kOpenFailed, "wrong exception type");
  }
  ADD_FAILURE() << "no exception thrown";
  return IoError(IoErrorKind::kOpenFailed, "nothing thrown");
}

/// Serialises a small valid graph to bytes for corruption tests.
std::string valid_snapshot_bytes() {
  const CsrGraph g = graph::build_csr(gen::cycle_edges(16)).graph;
  std::ostringstream out(std::ios::binary);
  write_csr(out, g);
  return out.str();
}

graph::CsrGraph read_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return read_csr(in, "<test>");
}

TEST(BinaryErrors, BadMagicIsTyped) {
  std::string bytes = valid_snapshot_bytes();
  bytes[0] = 'X';
  const IoError e = expect_io_error([&] { (void)read_bytes(bytes); });
  EXPECT_EQ(e.kind(), IoErrorKind::kBadMagic);
}

TEST(BinaryErrors, TruncatedPayloadIsTyped) {
  const std::string bytes = valid_snapshot_bytes();
  const IoError e = expect_io_error(
      [&] { (void)read_bytes(bytes.substr(0, bytes.size() / 2)); });
  EXPECT_EQ(e.kind(), IoErrorKind::kTruncated);
}

TEST(BinaryErrors, TrailingGarbageIsTyped) {
  std::string bytes = valid_snapshot_bytes();
  bytes += "extra";
  const IoError e = expect_io_error([&] { (void)read_bytes(bytes); });
  EXPECT_EQ(e.kind(), IoErrorKind::kTrailingGarbage);
}

TEST(BinaryErrors, HugeVertexCountRejectedBeforeAllocating) {
  // Regression: a header declaring n == UINT64_MAX used to make the
  // reader compute n + 1 == 0 and attempt unbounded allocation.  It must
  // be rejected from the header alone.
  std::string bytes = valid_snapshot_bytes();
  const std::uint64_t n = ~0ULL;
  std::memcpy(bytes.data() + 8, &n, sizeof n);
  const IoError e = expect_io_error([&] { (void)read_bytes(bytes); });
  EXPECT_EQ(e.kind(), IoErrorKind::kHeaderBounds);
}

TEST(BinaryErrors, OversizedEdgeCountRejectedBeforeAllocating) {
  // m fits 64-bit arithmetic but dwarfs the actual stream: must be caught
  // by the file-size cross-check, not by a failed multi-GB allocation.
  std::string bytes = valid_snapshot_bytes();
  const std::uint64_t m = 1ULL << 40;
  std::memcpy(bytes.data() + 16, &m, sizeof m);
  const IoError e = expect_io_error([&] { (void)read_bytes(bytes); });
  EXPECT_EQ(e.kind(), IoErrorKind::kTruncated);
}

TEST(BinaryErrors, NonMonotoneOffsetsAreTyped) {
  // Swap offsets[1] and offsets[2] of the 16-cycle (2 and 4).
  std::string bytes = valid_snapshot_bytes();
  char tmp[8];
  std::memcpy(tmp, bytes.data() + 24 + 8, 8);
  std::memcpy(bytes.data() + 24 + 8, bytes.data() + 24 + 16, 8);
  std::memcpy(bytes.data() + 24 + 16, tmp, 8);
  const IoError e = expect_io_error([&] { (void)read_bytes(bytes); });
  EXPECT_EQ(e.kind(), IoErrorKind::kInvariantViolation);
}

TEST(BinaryErrors, OutOfRangeNeighborIsTypedWithByteOffset) {
  std::string bytes = valid_snapshot_bytes();
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + 8, sizeof n);
  const std::size_t neighbors_base = 24 + (n + 1) * 8;
  const graph::VertexId bad = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + neighbors_base + 4, &bad, sizeof bad);
  const IoError e = expect_io_error([&] { (void)read_bytes(bytes); });
  EXPECT_EQ(e.kind(), IoErrorKind::kInvariantViolation);
  EXPECT_EQ(e.byte_offset(), neighbors_base + 4);
}

/// A stream that cannot seek, like a pipe: tellg fails, so the loader
/// cannot learn the payload size up front.
class NonSeekableBuf : public std::stringbuf {
 public:
  explicit NonSeekableBuf(const std::string& bytes)
      : std::stringbuf(bytes, std::ios::in | std::ios::binary) {}

 protected:
  pos_type seekoff(off_type, std::ios::seekdir, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
};

graph::CsrGraph read_non_seekable(const std::string& bytes) {
  NonSeekableBuf buffer(bytes);
  std::istream in(&buffer);
  return read_csr(in, "<pipe>");
}

TEST(BinaryErrors, NonSeekableHugeEdgeCountEndsTruncated) {
  // Regression: with no stream size to check against, the loader used to
  // allocate the header's m = 2^60 neighbours up front and die with
  // std::bad_alloc.  It must grow with the bytes that arrive instead.
  std::string bytes(24, '\0');
  std::memcpy(bytes.data(), "THRFTYG1", 8);
  const std::uint64_t n = 10;
  const std::uint64_t m = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + 8, &n, sizeof n);
  std::memcpy(bytes.data() + 16, &m, sizeof m);
  const IoError header_only =
      expect_io_error([&] { (void)read_non_seekable(bytes); });
  EXPECT_EQ(header_only.kind(), IoErrorKind::kTruncated);
  EXPECT_EQ(header_only.byte_offset(), 24u);

  // Valid offsets (all zero), then the neighbour read runs dry.
  bytes.append((n + 1) * 8, '\0');
  const IoError no_neighbors =
      expect_io_error([&] { (void)read_non_seekable(bytes); });
  EXPECT_EQ(no_neighbors.kind(), IoErrorKind::kTruncated);
  EXPECT_EQ(no_neighbors.byte_offset(), bytes.size());
}

TEST(BinaryErrors, NonSeekableStreamLoadsAndRejectsLikeSeekable) {
  gen::RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  std::ostringstream out(std::ios::binary);
  write_csr(out, g);
  const std::string bytes = out.str();

  const CsrGraph loaded = read_non_seekable(bytes);
  EXPECT_TRUE(std::equal(loaded.offsets().begin(), loaded.offsets().end(),
                         g.offsets().begin(), g.offsets().end()));
  EXPECT_TRUE(std::equal(loaded.neighbor_array().begin(),
                         loaded.neighbor_array().end(),
                         g.neighbor_array().begin(),
                         g.neighbor_array().end()));

  // Without a size, truncation shows at the first missing byte and
  // trailing bytes at the end of the declared payload.
  const IoError truncated = expect_io_error(
      [&] { (void)read_non_seekable(bytes.substr(0, bytes.size() - 3)); });
  EXPECT_EQ(truncated.kind(), IoErrorKind::kTruncated);
  EXPECT_EQ(truncated.byte_offset(), bytes.size() - 3);
  const IoError garbage =
      expect_io_error([&] { (void)read_non_seekable(bytes + "x"); });
  EXPECT_EQ(garbage.kind(), IoErrorKind::kTrailingGarbage);
  EXPECT_EQ(garbage.byte_offset(), bytes.size());
}

TEST_F(TempDir, FifoTakesTheStreamPath) {
  // A FIFO has no size to pread against; read_csr_file must hand it to
  // the stream loader and load it in full, across many pipe buffers.
  const CsrGraph g = graph::build_csr(gen::cycle_edges(40000)).graph;
  std::ostringstream out(std::ios::binary);
  write_csr(out, g);
  const std::string bytes = out.str();
  const std::string fifo = path("graph.bin");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  // The writer never blocks in open: it polls until the reader is there
  // (or gives up), so a failing reader cannot hang the test.
  std::thread writer([&] {
    int fd = -1;
    for (int attempt = 0; attempt < 5000 && fd < 0; ++attempt) {
      fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (fd < 0) return;
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ::ssize_t wrote =
          ::write(fd, bytes.data() + done, bytes.size() - done);
      if (wrote <= 0) break;
      done += static_cast<std::size_t>(wrote);
    }
    ::close(fd);
  });
  std::optional<CsrGraph> loaded;
  EXPECT_NO_THROW(loaded.emplace(read_csr_file(fifo)));
  writer.join();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(std::equal(loaded->offsets().begin(), loaded->offsets().end(),
                         g.offsets().begin(), g.offsets().end()));
  EXPECT_TRUE(std::equal(loaded->neighbor_array().begin(),
                         loaded->neighbor_array().end(),
                         g.neighbor_array().begin(),
                         g.neighbor_array().end()));
}

TEST(BinaryErrors, MissingFileIsTyped) {
  const IoError e = expect_io_error(
      [] { (void)read_csr_file("/nonexistent/definitely/not/here.bin"); });
  EXPECT_EQ(e.kind(), IoErrorKind::kOpenFailed);
}

TEST(EdgeListErrors, TrailingGarbageRejectedWithLineNumber) {
  std::istringstream in("0 1\n1 2 xyz\n");
  const IoError e =
      expect_io_error([&] { (void)read_edge_list(in); });
  EXPECT_EQ(e.kind(), IoErrorKind::kTrailingGarbage);
  EXPECT_EQ(e.line(), 2u);
}

TEST(EdgeListErrors, ExtraNumericTokenRejected) {
  // "1 2 3" is a weighted edge or corruption — never silently edge 1-2.
  std::istringstream in("1 2 3\n");
  EXPECT_EQ(expect_io_error([&] { (void)read_edge_list(in); }).kind(),
            IoErrorKind::kTrailingGarbage);
}

TEST(EdgeListErrors, TrailingWhitespaceAndCommentsAccepted) {
  std::istringstream in("0 1   \n1 2\t# weight note\n2 3 % konect note\n");
  EXPECT_EQ(read_edge_list(in).size(), 3u);
}

TEST(EdgeListErrors, MalformedLineIsTyped) {
  std::istringstream in("0 1\nnot numbers\n");
  const IoError e = expect_io_error([&] { (void)read_edge_list(in); });
  EXPECT_EQ(e.kind(), IoErrorKind::kMalformedLine);
  EXPECT_EQ(e.line(), 2u);
}

TEST(MatrixMarketErrors, OversizedEntryCountRejectedBeforeReserve) {
  // A hostile size line declaring 10^12 entries in a tiny stream must be
  // rejected up front (the old reader reserved memory for it).
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "4 4 1000000000000\n"
      "2 1\n");
  const IoError e =
      expect_io_error([&] { (void)read_matrix_market(in); });
  EXPECT_EQ(e.kind(), IoErrorKind::kCountMismatch);
}

TEST(MatrixMarketErrors, UnsupportedSymmetryQualifierRejected) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern hermitian\n2 2 1\n2 1\n");
  EXPECT_EQ(expect_io_error([&] { (void)read_matrix_market(in); }).kind(),
            IoErrorKind::kBadBanner);
}

TEST(MatrixMarketErrors, UnsupportedFieldQualifierRejected) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate quaternion symmetric\n2 2 1\n2 1\n");
  EXPECT_EQ(expect_io_error([&] { (void)read_matrix_market(in); }).kind(),
            IoErrorKind::kBadBanner);
}

TEST(MatrixMarketErrors, SupportedQualifiersStillAccepted) {
  for (const char* banner :
       {"%%MatrixMarket matrix coordinate pattern general\n",
        "%%MatrixMarket matrix coordinate real symmetric\n",
        "%%MatrixMarket matrix coordinate integer general\n"}) {
    std::istringstream in(std::string(banner) + "2 2 1\n2 1 5\n");
    EXPECT_EQ(read_matrix_market(in).edges.size(), 1u) << banner;
  }
}

TEST(MatrixMarketErrors, ShortFileIsTypedTruncated) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 2\n");
  EXPECT_EQ(expect_io_error([&] { (void)read_matrix_market(in); }).kind(),
            IoErrorKind::kTruncated);
}

TEST(MatrixMarketErrors, OutOfRangeEntryIsTypedWithLine) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n");
  const IoError e =
      expect_io_error([&] { (void)read_matrix_market(in); });
  EXPECT_EQ(e.kind(), IoErrorKind::kIndexOutOfRange);
  EXPECT_EQ(e.line(), 3u);
}

// ---------------------------------------------------------------------------
// Byte-identical round trips through files for all three formats.

TEST_F(TempDir, AllFormatsRoundTripByteIdenticalThroughFiles) {
  const EdgeList edges = gen::random_tree_edges(200, 5);
  const CsrGraph g = graph::build_csr(edges).graph;
  const auto file_bytes = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };

  write_csr_file(path("a.bin"), g);
  write_csr_file(path("b.bin"), read_csr_file(path("a.bin")));
  EXPECT_EQ(file_bytes(path("a.bin")), file_bytes(path("b.bin")));

  write_edge_list_file(path("a.el"), edges);
  write_edge_list_file(path("b.el"), read_edge_list_file(path("a.el")));
  EXPECT_EQ(file_bytes(path("a.el")), file_bytes(path("b.el")));

  write_matrix_market_file(path("a.mtx"), edges, 200);
  const MatrixMarketGraph mm = read_matrix_market_file(path("a.mtx"));
  write_matrix_market_file(path("b.mtx"), mm.edges, mm.num_vertices);
  EXPECT_EQ(file_bytes(path("a.mtx")), file_bytes(path("b.mtx")));
}

}  // namespace
}  // namespace thrifty::io
