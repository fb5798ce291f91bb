#include "tools/ingest_fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "graph/validate.hpp"
#include "io/binary_io.hpp"
#include "io/edge_list_io.hpp"
#include "io/io_error.hpp"
#include "io/matrix_market_io.hpp"
#include "io/mmap_io.hpp"
#include "support/random.hpp"

namespace thrifty::tools {

namespace {

using graph::CsrGraph;
using graph::EdgeList;
using graph::VertexId;
using support::Xoshiro256StarStar;

/// Mutants that parse may legitimately name vertices far beyond the base
/// graph (an edge list has no declared universe); building CSR over them
/// would dwarf the harness budget, and the builder is covered by its own
/// differential test, so such parses count as accepted-unbuilt.
constexpr std::uint64_t kMaxBuildVertices = 1u << 22;

enum class Format { kBinary, kEdgeList, kMatrixMarket };

constexpr const char* to_string(Format f) {
  switch (f) {
    case Format::kBinary:
      return "binary";
    case Format::kEdgeList:
      return "edge-list";
    case Format::kMatrixMarket:
      return "matrix-market";
  }
  return "?";
}

enum class Mutation {
  kNone,  ///< control: the unmutated encoding must be accepted
  kHeaderBitFlip,
  kBodyBitFlip,
  kTruncate,
  kTrailingGarbage,
  kDuplicateChunk,
  kOverwriteHuge,
  kNonMonotoneOffsets,  ///< binary only; body bit flip elsewhere
  kDeleteByte,
};
constexpr int kNumMutations = 9;

constexpr const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "none";
    case Mutation::kHeaderBitFlip:
      return "header-bit-flip";
    case Mutation::kBodyBitFlip:
      return "body-bit-flip";
    case Mutation::kTruncate:
      return "truncate";
    case Mutation::kTrailingGarbage:
      return "trailing-garbage";
    case Mutation::kDuplicateChunk:
      return "duplicate-chunk";
    case Mutation::kOverwriteHuge:
      return "overwrite-huge";
    case Mutation::kNonMonotoneOffsets:
      return "non-monotone-offsets";
    case Mutation::kDeleteByte:
      return "delete-byte";
  }
  return "?";
}

/// A base graph drawn from the generator families the benchmarks use
/// (skewed, uniform-random, grid, and elementary shapes).
EdgeList base_edges(Xoshiro256StarStar& rng) {
  switch (rng.next_below(7)) {
    case 0: {
      gen::RmatParams p;
      p.scale = 6 + static_cast<int>(rng.next_below(3));
      p.edge_factor = 4;
      p.seed = rng.next();
      return gen::rmat_edges(p);
    }
    case 1: {
      gen::ErdosRenyiParams p;
      p.num_vertices = 1u << (6 + rng.next_below(3));
      p.num_edges = p.num_vertices * 4;
      p.seed = rng.next();
      return gen::erdos_renyi_edges(p);
    }
    case 2: {
      gen::GridParams p;
      p.width = static_cast<VertexId>(4 + rng.next_below(28));
      p.height = static_cast<VertexId>(4 + rng.next_below(28));
      return gen::grid_edges(p);
    }
    case 3:
      return gen::path_edges(
          static_cast<VertexId>(2 + rng.next_below(200)));
    case 4:
      return gen::star_edges(
          static_cast<VertexId>(2 + rng.next_below(200)));
    case 5:
      return gen::clique_edges(
          static_cast<VertexId>(2 + rng.next_below(24)));
    default:
      return gen::random_tree_edges(
          static_cast<VertexId>(2 + rng.next_below(400)), rng.next());
  }
}

VertexId max_endpoint(const EdgeList& edges) {
  VertexId max_id = 0;
  for (const auto& e : edges) max_id = std::max({max_id, e.u, e.v});
  return max_id;
}

std::string encode(Format format, const EdgeList& edges) {
  std::ostringstream out(std::ios::binary);
  switch (format) {
    case Format::kBinary:
      io::write_csr(out, graph::build_csr(edges).graph);
      break;
    case Format::kEdgeList:
      io::write_edge_list(out, edges);
      break;
    case Format::kMatrixMarket:
      io::write_matrix_market(out, edges,
                              edges.empty() ? 1 : max_endpoint(edges) + 1);
      break;
  }
  return out.str();
}

void apply_mutation(std::string& bytes, Format format, Mutation mutation,
                    Xoshiro256StarStar& rng) {
  const std::size_t size = bytes.size();
  const auto flip_bit_at = [&](std::size_t limit) {
    if (limit == 0) return;
    const std::size_t pos = rng.next_below(limit);
    bytes[pos] = static_cast<char>(
        static_cast<unsigned char>(bytes[pos]) ^ (1u << rng.next_below(8)));
  };
  switch (mutation) {
    case Mutation::kNone:
      break;
    case Mutation::kHeaderBitFlip:
      // Binary header is 24 bytes; for text formats the "header" is the
      // leading banner/size region, approximated by the first 64 bytes.
      flip_bit_at(std::min<std::size_t>(size, 64));
      break;
    case Mutation::kBodyBitFlip:
      flip_bit_at(size);
      break;
    case Mutation::kTruncate:
      if (size > 0) bytes.resize(rng.next_below(size));
      break;
    case Mutation::kTrailingGarbage: {
      const std::size_t count = 1 + rng.next_below(16);
      for (std::size_t i = 0; i < count; ++i) {
        // Printable for text formats, arbitrary for binary.
        bytes.push_back(format == Format::kBinary
                            ? static_cast<char>(rng.next_below(256))
                            : static_cast<char>('!' + rng.next_below(94)));
      }
      break;
    }
    case Mutation::kDuplicateChunk: {
      if (size == 0) break;
      const std::size_t pos = rng.next_below(size);
      const std::size_t len =
          1 + rng.next_below(std::min<std::size_t>(size - pos, 64));
      const std::string chunk = bytes.substr(pos, len);
      bytes.insert(pos, chunk);
      break;
    }
    case Mutation::kOverwriteHuge: {
      if (size == 0) break;
      // Out-of-range entries: stamp a run of 0xFF (binary) or '9' digits
      // (text) over a random region.
      const std::size_t pos = rng.next_below(size);
      const std::size_t len =
          std::min<std::size_t>(size - pos, 4 + rng.next_below(8));
      for (std::size_t i = 0; i < len; ++i) {
        bytes[pos + i] = format == Format::kBinary ? '\xFF' : '9';
      }
      break;
    }
    case Mutation::kNonMonotoneOffsets: {
      if (format != Format::kBinary || size < 24 + 16) {
        flip_bit_at(size);
        break;
      }
      // Swap two 8-byte offsets in place; leaves the size checks happy so
      // the post-read invariant validation is what must catch it.
      std::uint64_t n = 0;
      std::memcpy(&n, bytes.data() + 8, sizeof n);
      if (n < 1 || bytes.size() < 24 + (n + 1) * 8) {
        flip_bit_at(size);
        break;
      }
      const std::uint64_t i = rng.next_below(n + 1);
      const std::uint64_t j = rng.next_below(n + 1);
      char tmp[8];
      std::memcpy(tmp, bytes.data() + 24 + i * 8, 8);
      std::memcpy(bytes.data() + 24 + i * 8, bytes.data() + 24 + j * 8, 8);
      std::memcpy(bytes.data() + 24 + j * 8, tmp, 8);
      break;
    }
    case Mutation::kDeleteByte:
      if (size > 0) bytes.erase(rng.next_below(size), 1);
      break;
  }
}

/// Outcome of feeding one (possibly mutated) buffer through its loader.
/// Typed rejections arrive as IoError exceptions, not as an outcome.
enum class Outcome { kAcceptedValid, kAcceptedUnbuilt, kContractBreak };

/// Scratch path for the file-loader differentials, unique per process.
const std::filesystem::path& loader_scratch_path() {
  static const std::filesystem::path path = [] {
    std::ostringstream name;
    name << "thrifty_fuzz_loaders_" << std::hex
         << reinterpret_cast<std::uintptr_t>(&loader_scratch_path)
         << ".bin";
    return std::filesystem::temp_directory_path() / name.str();
  }();
  return path;
}

/// Compares one file loader's verdict with the stream loader's: identical
/// arrays on acceptance, the same IoError kind and byte offset on
/// rejection.  Returns a failure description, or "" when they agree.
std::string compare_with_stream(
    const char* name, const std::function<CsrGraph()>& load,
    const std::optional<CsrGraph>& stream_graph,
    const std::optional<io::IoError>& stream_error) {
  const std::string loader(name);
  try {
    const CsrGraph loaded = load();
    if (stream_error) {
      return loader + " accepted bytes the stream loader rejected with " +
             io::to_string(stream_error->kind());
    }
    if (!std::equal(loaded.offsets().begin(), loaded.offsets().end(),
                    stream_graph->offsets().begin(),
                    stream_graph->offsets().end()) ||
        !std::equal(loaded.neighbor_array().begin(),
                    loaded.neighbor_array().end(),
                    stream_graph->neighbor_array().begin(),
                    stream_graph->neighbor_array().end())) {
      return loader + " produced different CSR arrays than the stream loader";
    }
  } catch (const io::IoError& e) {
    if (!stream_error) {
      return loader + " rejected (" + io::to_string(e.kind()) +
             ") bytes the stream loader accepted";
    }
    if (e.kind() != stream_error->kind() ||
        e.byte_offset() != stream_error->byte_offset()) {
      return "error mismatch: stream " +
             std::string(io::to_string(stream_error->kind())) + " at byte " +
             std::to_string(stream_error->byte_offset()) + ", " + loader +
             " " + io::to_string(e.kind()) + " at byte " +
             std::to_string(e.byte_offset());
    }
  } catch (const std::exception& e) {
    return loader + " threw untyped exception: " + e.what();
  }
  return "";
}

/// Differential over the file loaders: read_csr_file (parallel pread) and
/// read_csr_mmap (zero copy) over the same bytes must each agree with the
/// stream loader's verdict.  Returns a failure description, or "" when
/// all three agree.
std::string check_file_loaders_agree(
    const std::string& bytes, const std::optional<CsrGraph>& stream_graph,
    const std::optional<io::IoError>& stream_error) {
  const std::filesystem::path& path = loader_scratch_path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return "loader differential: cannot write scratch file";
  }
  const std::string file = path.string();
  std::string verdict = compare_with_stream(
      "read_csr_file", [&] { return io::read_csr_file(file); },
      stream_graph, stream_error);
  if (verdict.empty() && io::mmap_supported()) {
    verdict = compare_with_stream(
        "read_csr_mmap", [&] { return io::read_csr_mmap(file); },
        stream_graph, stream_error);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return verdict;
}

Outcome evaluate(Format format, const std::string& bytes,
                 std::string& detail) {
  switch (format) {
    case Format::kBinary: {
      std::optional<CsrGraph> stream_graph;
      std::optional<io::IoError> stream_error;
      try {
        std::istringstream in(bytes, std::ios::binary);
        stream_graph.emplace(io::read_csr(in, "<fuzz>"));
      } catch (const io::IoError& e) {
        stream_error.emplace(e);
      }
      // Loader differential: every buffer the fuzzer produces also runs
      // through read_csr_file and read_csr_mmap, which must match the
      // stream loader byte for byte, error kind and offset included.
      if (std::string mismatch =
              check_file_loaders_agree(bytes, stream_graph, stream_error);
          !mismatch.empty()) {
        detail = std::move(mismatch);
        return Outcome::kContractBreak;
      }
      if (stream_error) throw *stream_error;
      // The loader guarantees the structural invariants; re-check via the
      // independent validator (symmetry exempt: snapshots of directed
      // data are representable, and mutations may legally break it).
      graph::ValidateOptions opts;
      opts.check_symmetry = false;
      const auto report = graph::validate_csr(*stream_graph, opts);
      if (!report.ok()) {
        detail = "loader accepted an invalid CSR: " + report.to_string();
        return Outcome::kContractBreak;
      }
      return Outcome::kAcceptedValid;
    }
    case Format::kEdgeList: {
      std::istringstream in(bytes);
      const EdgeList edges = io::read_edge_list(in);
      if (!edges.empty() && max_endpoint(edges) >= kMaxBuildVertices) {
        return Outcome::kAcceptedUnbuilt;
      }
      const auto report =
          graph::validate_csr(graph::build_csr(edges).graph);
      if (!report.ok()) {
        detail = "builder produced invalid CSR from accepted edge list: " +
                 report.to_string();
        return Outcome::kContractBreak;
      }
      return Outcome::kAcceptedValid;
    }
    case Format::kMatrixMarket: {
      std::istringstream in(bytes);
      const io::MatrixMarketGraph mm = io::read_matrix_market(in);
      if (mm.num_vertices >= kMaxBuildVertices) {
        return Outcome::kAcceptedUnbuilt;
      }
      const auto report = graph::validate_csr(
          graph::build_csr(mm.edges, mm.num_vertices).graph);
      if (!report.ok()) {
        detail = "builder produced invalid CSR from accepted MM input: " +
                 report.to_string();
        return Outcome::kContractBreak;
      }
      return Outcome::kAcceptedValid;
    }
  }
  detail = "unknown format";
  return Outcome::kContractBreak;
}

}  // namespace

FuzzStats fuzz_ingest(const FuzzOptions& options) {
  FuzzStats stats;
  Xoshiro256StarStar rng(options.seed);
  for (std::uint64_t iter = 0; iter < options.iterations; ++iter) {
    ++stats.iterations;
    const auto format = static_cast<Format>(rng.next_below(3));
    const auto mutation = static_cast<Mutation>(
        rng.next_below(kNumMutations));
    const EdgeList edges = base_edges(rng);
    std::string bytes = encode(format, edges);
    apply_mutation(bytes, format, mutation, rng);

    const std::string label = "iter " + std::to_string(iter) + " [" +
                              to_string(format) + ", " +
                              to_string(mutation) + "]";
    std::string verdict;
    try {
      std::string detail;
      switch (evaluate(format, bytes, detail)) {
        case Outcome::kAcceptedValid:
          ++stats.accepted_valid;
          verdict = "accepted";
          break;
        case Outcome::kAcceptedUnbuilt:
          ++stats.accepted_unbuilt;
          verdict = "accepted (unbuilt)";
          break;
        case Outcome::kContractBreak:
          stats.failures.push_back(label + ": " + detail);
          verdict = "FAILURE: " + detail;
          break;
      }
    } catch (const io::IoError& e) {
      ++stats.rejected;
      verdict = std::string("rejected: ") + e.what();
      if (mutation == Mutation::kNone) {
        stats.failures.push_back(label +
                                 ": control input rejected: " + e.what());
      }
    } catch (const std::exception& e) {
      stats.failures.push_back(label + ": untyped exception: " + e.what());
      verdict = std::string("FAILURE: untyped exception: ") + e.what();
    }
    if (options.verbose) {
      std::fprintf(stderr, "%s -> %s\n", label.c_str(), verdict.c_str());
    }
  }
  return stats;
}

std::vector<std::string> check_round_trips(std::uint64_t seed) {
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, EdgeList>> corpus;
  {
    gen::RmatParams rmat;
    rmat.scale = 8;
    rmat.edge_factor = 8;
    rmat.seed = seed;
    corpus.emplace_back("rmat8", gen::rmat_edges(rmat));
    gen::ErdosRenyiParams er;
    er.num_vertices = 1 << 10;
    er.num_edges = 1 << 12;
    er.seed = seed;
    corpus.emplace_back("er10", gen::erdos_renyi_edges(er));
    gen::GridParams grid;
    grid.width = 16;
    grid.height = 16;
    corpus.emplace_back("grid16", gen::grid_edges(grid));
    corpus.emplace_back("path50", gen::path_edges(50));
    corpus.emplace_back("star64", gen::star_edges(64));
    corpus.emplace_back("clique8", gen::clique_edges(8));
    corpus.emplace_back("tree256", gen::random_tree_edges(256, seed));
  }

  const auto expect_identical = [&](const std::string& name,
                                    const std::string& format,
                                    const std::string& first,
                                    const std::string& second) {
    if (first != second) {
      failures.push_back(name + ": " + format +
                         " round trip not byte-identical (" +
                         std::to_string(first.size()) + " vs " +
                         std::to_string(second.size()) + " bytes)");
    }
  };

  for (const auto& [name, edges] : corpus) {
    // Edge list: text encode -> parse -> encode.
    {
      std::ostringstream first;
      io::write_edge_list(first, edges);
      std::istringstream in(first.str());
      const EdgeList reread = io::read_edge_list(in);
      std::ostringstream second;
      io::write_edge_list(second, reread);
      expect_identical(name, "edge-list", first.str(), second.str());
    }
    // Matrix Market.
    {
      const VertexId n = edges.empty() ? 1 : max_endpoint(edges) + 1;
      std::ostringstream first;
      io::write_matrix_market(first, edges, n);
      std::istringstream in(first.str());
      const io::MatrixMarketGraph mm = io::read_matrix_market(in);
      std::ostringstream second;
      io::write_matrix_market(second, mm.edges, mm.num_vertices);
      expect_identical(name, "matrix-market", first.str(), second.str());
      // Differential: CSR built from the round-tripped entries must be
      // bit-identical to CSR built from the original list (the writer
      // canonicalises entry order but not the edge set).
      const CsrGraph direct = graph::build_csr(edges, n).graph;
      const CsrGraph via_mm =
          graph::build_csr(mm.edges, mm.num_vertices).graph;
      const auto off_a = direct.offsets();
      const auto off_b = via_mm.offsets();
      const auto adj_a = direct.neighbor_array();
      const auto adj_b = via_mm.neighbor_array();
      if (!std::equal(off_a.begin(), off_a.end(), off_b.begin(),
                      off_b.end()) ||
          !std::equal(adj_a.begin(), adj_a.end(), adj_b.begin(),
                      adj_b.end())) {
        failures.push_back(name + ": CSR via matrix-market differs from "
                                  "direct build");
      }
    }
    // Binary CSR snapshot.
    {
      const CsrGraph g = graph::build_csr(edges).graph;
      std::ostringstream first(std::ios::binary);
      io::write_csr(first, g);
      std::istringstream in(first.str(), std::ios::binary);
      const CsrGraph reread = io::read_csr(in, "<round-trip>");
      std::ostringstream second(std::ios::binary);
      io::write_csr(second, reread);
      expect_identical(name, "binary", first.str(), second.str());
      const auto report = graph::validate_csr(reread);
      if (!report.ok()) {
        failures.push_back(name + ": reloaded snapshot invalid: " +
                           report.to_string());
      }
    }
  }
  return failures;
}

}  // namespace thrifty::tools
