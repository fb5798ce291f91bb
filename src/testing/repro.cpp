#include "testing/repro.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace thrifty::testing {

using graph::VertexId;

namespace {

constexpr const char* kHeader = "# cc_crosscheck repro v1";

[[noreturn]] void malformed(const std::string& why) {
  throw std::runtime_error("repro file: " + why);
}

/// Values are the rest of the line, so details with spaces round-trip;
/// embedded newlines are flattened on write.
std::string sanitize(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

void write_repro(std::ostream& out, const Repro& repro) {
  out << kHeader << "\n";
  out << "spec " << sanitize(repro.scenario_spec) << "\n";
  out << "oracle " << sanitize(repro.oracle) << "\n";
  out << "algorithm " << sanitize(repro.algorithm) << "\n";
  out << "detail " << sanitize(repro.detail) << "\n";
  out << "threads " << repro.setup.threads << "\n";
  if (repro.setup.density_threshold) {
    out << "density_threshold " << *repro.setup.density_threshold << "\n";
  } else {
    out << "density_threshold default\n";
  }
  out << "algorithm_seed " << repro.setup.algorithm_seed << "\n";
  out << "simd " << support::to_string(repro.setup.simd) << "\n";
  out << "reorder " << reorder::to_string(repro.setup.reorder) << "\n";
  out << "plan " << sanitize(repro.setup.plan) << "\n";
  out << "shards " << repro.setup.shards << "\n";
  out << "fault " << to_string(repro.fault) << "\n";
  out << "vertices " << repro.num_vertices << "\n";
  out << "edges " << repro.edges.size() << "\n";
  for (const graph::Edge& e : repro.edges) {
    out << e.u << " " << e.v << "\n";
  }
}

void write_repro_file(const std::string& path, const Repro& repro) {
  std::ofstream out(path);
  if (!out) malformed("cannot open '" + path + "' for writing");
  write_repro(out, repro);
  out.flush();
  if (!out) malformed("write to '" + path + "' failed");
}

Repro read_repro(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    malformed("missing '" + std::string(kHeader) + "' header");
  }
  Repro repro;
  std::uint64_t edge_count = 0;
  bool have_vertices = false;
  bool have_edges = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "spec") {
      repro.scenario_spec = value;
    } else if (key == "oracle") {
      repro.oracle = value;
    } else if (key == "algorithm") {
      repro.algorithm = value;
    } else if (key == "detail") {
      repro.detail = value;
    } else if (key == "threads") {
      repro.setup.threads = std::stoi(value);
    } else if (key == "hub_split_degree" || key == "placement" ||
               key == "numa_steal") {
      // Legacy keys: written while hub splitting, the page-placement
      // policy and the steal scope were run knobs.  None of them affects
      // a run any more, so they are read and ignored.
    } else if (key == "density_threshold") {
      if (value == "default") {
        repro.setup.density_threshold.reset();
      } else {
        repro.setup.density_threshold = std::stod(value);
      }
    } else if (key == "algorithm_seed") {
      repro.setup.algorithm_seed = std::stoull(value);
    } else if (key == "simd") {
      // Absent in repro files from before the kernel-level knob existed;
      // the RunSetup default (auto) covers those.
      const auto level = support::parse_simd_level(value);
      if (!level) malformed("unknown simd level '" + value + "'");
      repro.setup.simd = *level;
    } else if (key == "reorder") {
      // Absent in repro files from before the reorder knob existed; the
      // RunSetup default (none) covers those.
      const auto kind = reorder::parse_order_kind(value);
      if (!kind) malformed("unknown reorder '" + value + "'");
      repro.setup.reorder = *kind;
    } else if (key == "plan") {
      // Absent in repro files from before the plan dimension existed;
      // the RunSetup default ("auto") covers those.  Kept as raw text —
      // replay parses and validates it at solve start.
      repro.setup.plan = value;
    } else if (key == "shards") {
      // Absent in repro files from before the sharded-solver dimension;
      // the RunSetup default (1, the single-shot path) covers those.
      repro.setup.shards = std::stoi(value);
    } else if (key == "fault") {
      const auto kind = parse_fault_kind(value);
      if (!kind) malformed("unknown fault kind '" + value + "'");
      repro.fault = *kind;
    } else if (key == "vertices") {
      repro.num_vertices = static_cast<VertexId>(std::stoul(value));
      have_vertices = true;
    } else if (key == "edges") {
      edge_count = std::stoull(value);
      have_edges = true;
      break;  // edge section follows
    } else {
      // Forward compatibility: a newer writer may emit keys this reader
      // does not know (the simd/reorder/plan/shards knobs were all
      // added after v1).  Skip with a warning rather than hard-failing,
      // so old binaries can still replay new repro files; the known keys
      // above fully determine the run.
      std::fprintf(stderr,
                   "repro file: skipping unknown key '%s' "
                   "(written by a newer version?)\n",
                   key.c_str());
    }
  }
  if (!have_vertices || !have_edges) {
    malformed("missing 'vertices' or 'edges' section");
  }
  repro.edges.reserve(edge_count);
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    if (!std::getline(in, line)) {
      malformed("edge section truncated: expected " +
                std::to_string(edge_count) + " edges, got " +
                std::to_string(i));
    }
    std::istringstream pair(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(pair >> u >> v)) malformed("bad edge line '" + line + "'");
    if (u >= repro.num_vertices || v >= repro.num_vertices) {
      malformed("edge endpoint out of range on line '" + line + "'");
    }
    repro.edges.push_back({static_cast<VertexId>(u),
                           static_cast<VertexId>(v)});
  }
  return repro;
}

Repro read_repro_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) malformed("cannot open '" + path + "'");
  return read_repro(in);
}

}  // namespace thrifty::testing
