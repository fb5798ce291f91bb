#include "tools/tool_common.hpp"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "bench_common/datasets.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/edge_list_io.hpp"
#include "io/mmap_io.hpp"
#include "io/matrix_market_io.hpp"

namespace thrifty::tools {

namespace {

/// Parses all of `text` as a T that can hold its value; otherwise throws
/// a message that starts with `what` (the flag or generator key).
template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  const char* const last = text.data() + text.size();
  T value{};
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::result_out_of_range) {
    throw std::runtime_error(what + ": '" + text + "' is out of range");
  }
  if (error != std::errc{} || end != last) {
    const char* kind = std::is_floating_point_v<T> ? "a number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
    throw std::runtime_error(what + ": '" + text + "' is not " + kind);
  }
  return value;
}

}  // namespace

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(arg.substr(2), "");
      } else {
        flags_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool ArgParser::has_flag(const std::string& name) const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [&](const auto& f) { return f.first == name; });
}

std::optional<std::string> ArgParser::flag(const std::string& name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::int64_t ArgParser::flag_int(const std::string& name,
                                 std::int64_t fallback) const {
  const auto value = flag(name);
  if (!value || value->empty()) return fallback;
  return parse_number<std::int64_t>("--" + name, *value);
}

double ArgParser::flag_double(const std::string& name,
                              double fallback) const {
  const auto value = flag(name);
  if (!value || value->empty()) return fallback;
  return parse_number<double>("--" + name, *value);
}

std::vector<std::string> ArgParser::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

namespace {

/// The comma-separated key=value pairs of a `kind` generator spec.
/// Every key must be one of `keys` and appear at most once.
class GeneratorArgs {
 public:
  GeneratorArgs(const std::string& kind, const std::string& spec,
                std::initializer_list<const char*> keys)
      : kind_(kind) {
    std::istringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
      const auto eq = item.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("generator spec: expected key=value, got '" +
                                 item + "'");
      }
      const std::string key = item.substr(0, eq);
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        std::string known;
        for (const char* k : keys) {
          known += (known.empty() ? "" : ", ") + std::string(k);
        }
        throw std::runtime_error("generator spec: " + kind +
                                 " takes no key '" + key + "' (keys: " +
                                 known + ")");
      }
      if (!values_.emplace(key, item.substr(eq + 1)).second) {
        throw std::runtime_error("generator spec: " + kind + " key '" + key +
                                 "' given twice");
      }
    }
  }

  template <typename T>
  [[nodiscard]] T get(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return parse_number<T>(
        "generator spec: " + kind_ + " key '" + key + "'", it->second);
  }

 private:
  std::string kind_;
  std::map<std::string, std::string> values_;
};

graph::CsrGraph build_from_generator(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (kind == "dataset") {
    const auto* ds = bench::find_dataset(rest);
    if (ds == nullptr) {
      throw std::runtime_error("unknown dataset '" + rest +
                               "' (see bench_common/datasets.hpp)");
    }
    return bench::build_dataset(*ds);
  }
  if (kind == "rmat") {
    const GeneratorArgs args(kind, rest, {"scale", "ef", "seed"});
    gen::RmatParams params;
    params.scale = args.get<int>("scale", 14);
    params.edge_factor = args.get<int>("ef", 16);
    params.seed = args.get<std::uint64_t>("seed", 1);
    return graph::build_csr(gen::rmat_edges(params)).graph;
  }
  if (kind == "ba") {
    const GeneratorArgs args(kind, rest, {"n", "m", "seed"});
    gen::BarabasiAlbertParams params;
    params.num_vertices = args.get<graph::VertexId>("n", 1 << 14);
    params.edges_per_vertex = args.get<int>("m", 8);
    params.seed = args.get<std::uint64_t>("seed", 1);
    return graph::build_csr(gen::barabasi_albert_edges(params)).graph;
  }
  if (kind == "grid") {
    const GeneratorArgs args(kind, rest, {"w", "h", "seed"});
    gen::GridParams params;
    params.width = args.get<graph::VertexId>("w", 256);
    params.height = args.get<graph::VertexId>("h", 256);
    params.seed = args.get<std::uint64_t>("seed", 1);
    return graph::build_csr(gen::grid_edges(params),
                            params.width * params.height)
        .graph;
  }
  if (kind == "er") {
    const GeneratorArgs args(kind, rest, {"n", "m", "seed"});
    gen::ErdosRenyiParams params;
    params.num_vertices = args.get<graph::VertexId>("n", 1 << 14);
    params.num_edges = args.get<std::uint64_t>("m", 1 << 18);
    params.seed = args.get<std::uint64_t>("seed", 1);
    return graph::build_csr(gen::erdos_renyi_edges(params),
                            params.num_vertices)
        .graph;
  }
  throw std::runtime_error(
      "unknown generator '" + kind +
      "' (expected rmat | ba | grid | er | dataset)");
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(),
                      suffix) == 0;
}

}  // namespace

bool is_shard_manifest(const std::string& path) {
  return ends_with(path, ".shards");
}

graph::CsrGraph load_graph(const std::string& source,
                           const LoadOptions& options) {
  if (source.rfind("gen:", 0) == 0) {
    return build_from_generator(source.substr(4));
  }
  if (is_shard_manifest(source)) {
    throw std::runtime_error(
        "'" + source +
        "' is a shard manifest, not a single graph (thrifty_cc and "
        "graph_info read it as is)");
  }
  if (ends_with(source, ".bin")) {
    return io::read_csr_file_auto(source, options.use_mmap);
  }
  if (ends_with(source, ".mtx")) {
    const auto mm = io::read_matrix_market_file(source);
    return graph::build_csr(mm.edges, mm.num_vertices).graph;
  }
  // Default: whitespace edge list.
  return graph::build_csr(io::read_edge_list_file(source)).graph;
}

std::string summarize(const graph::CsrGraph& graph) {
  std::ostringstream out;
  out << graph.num_vertices() << " vertices, "
      << graph.num_undirected_edges() << " undirected edges ("
      << graph.num_directed_edges() << " directed)";
  return out.str();
}

}  // namespace thrifty::tools
