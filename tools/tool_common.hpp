// Shared command-line plumbing for the CLI tools: flag parsing, graph
// loading (edge-list / binary / matrix-market by extension, or a named
// generator spec), and error reporting.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"

namespace thrifty::tools {

/// Minimal --flag[=value] parser: positional arguments and flags.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool has_flag(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> flag(
      const std::string& name) const;
  [[nodiscard]] std::int64_t flag_int(const std::string& name,
                                      std::int64_t fallback) const;
  [[nodiscard]] double flag_double(const std::string& name,
                                   double fallback) const;

  /// Flags present on the command line that were never queried; used to
  /// reject typos.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> flags_;
};

struct LoadOptions {
  /// Load .bin CSR snapshots as zero-copy mapped views (io::read_csr_mmap)
  /// instead of copying through the stream loader.  Ignored for formats
  /// that must be parsed and rebuilt (edge lists, Matrix Market,
  /// generator specs).
  bool use_mmap = false;
};

/// Whether `path` names a sharded-snapshot manifest (the .shards file
/// graph_convert --shards writes) rather than a single graph.
[[nodiscard]] bool is_shard_manifest(const std::string& path);

/// Loads a graph from a path (.el/.txt edge list, .bin binary CSR,
/// .mtx Matrix Market) or builds one from a generator spec of the form
///   gen:rmat:scale=14,ef=16[,seed=3]
///   gen:ba:n=65536,m=8
///   gen:grid:w=512,h=512
///   gen:er:n=65536,m=1048576
///   gen:dataset:<name>        (the Table II stand-ins, THRIFTY_SCALE)
/// Throws std::runtime_error with a usable message on failure, including
/// for a shard manifest, which is not one graph.
[[nodiscard]] graph::CsrGraph load_graph(const std::string& source,
                                         const LoadOptions& options = {});

/// Human-oriented one-line summary.
[[nodiscard]] std::string summarize(const graph::CsrGraph& graph);

}  // namespace thrifty::tools
