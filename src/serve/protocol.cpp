#include "serve/protocol.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

namespace thrifty::serve {

using graph::Edge;
using graph::VertexId;

namespace {

/// Edges `ingest N` reserves up front; the batch grows past it only as
/// edge lines actually arrive, so a large N costs nothing by itself.
constexpr std::uint64_t kIngestReserveEdges = std::uint64_t{1} << 16;

enum class LineRead { kLine, kTooLong, kEnd };

/// std::getline bounded by kMaxLineBytes: an overlong line is discarded
/// through its newline and reported as kTooLong.
LineRead read_line(std::istream& in, std::string& line) {
  line.clear();
  for (int c = in.get(); c != std::char_traits<char>::eof(); c = in.get()) {
    if (c == '\n') return LineRead::kLine;
    if (line.size() == kMaxLineBytes) {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      return LineRead::kTooLong;
    }
    line.push_back(static_cast<char>(c));
  }
  return line.empty() ? LineRead::kEnd : LineRead::kLine;
}

Response err(std::string why) {
  Response response;
  response.ok = false;
  response.text = "ERR " + std::move(why);
  return response;
}

Response ok(std::string payload) {
  Response response;
  response.text =
      payload.empty() ? std::string("OK") : "OK " + std::move(payload);
  return response;
}

/// Parses a vertex id, enforcing the service's id space.
std::optional<VertexId> parse_vertex(const std::string& token,
                                     VertexId num_vertices) {
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value >= (std::uint64_t{1} << 33)) return std::nullopt;
  }
  if (token.empty() || value >= num_vertices) return std::nullopt;
  return static_cast<VertexId>(value);
}

std::string ingest_summary(const IngestReport& report) {
  std::ostringstream out;
  out << "accepted=" << report.accepted + report.self_loops
      << " rejected=" << report.rejected << " merges=" << report.merges
      << " epoch=" << report.epoch
      << " recompacted=" << (report.recompacted ? 1 : 0);
  return out.str();
}

Response handle_add(ConnectivityService& service,
                    const std::vector<std::string>& tokens) {
  if (tokens.size() < 3 || tokens.size() % 2 == 0) {
    return err("usage: add U V [U V ...]");
  }
  std::vector<Edge> batch;
  batch.reserve((tokens.size() - 1) / 2);
  for (std::size_t i = 1; i + 1 < tokens.size(); i += 2) {
    // Endpoint validation happens in ingest_batch (counted as
    // rejected); here we only require numeric tokens.  An id beyond the
    // service's space still parses — the report then shows it rejected.
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    try {
      u = std::stoull(tokens[i]);
      v = std::stoull(tokens[i + 1]);
    } catch (const std::exception&) {
      return err("bad edge '" + tokens[i] + " " + tokens[i + 1] + "'");
    }
    batch.push_back({static_cast<VertexId>(std::min<std::uint64_t>(
                         u, std::uint64_t{0xffffffff})),
                     static_cast<VertexId>(std::min<std::uint64_t>(
                         v, std::uint64_t{0xffffffff}))});
  }
  return ok(ingest_summary(service.ingest_batch(batch)));
}

Response handle_ingest(ConnectivityService& service,
                       const std::vector<std::string>& tokens,
                       std::istream& in) {
  if (tokens.size() != 2) return err("usage: ingest N");
  std::uint64_t n = 0;
  try {
    n = std::stoull(tokens[1]);
  } catch (const std::exception&) {
    return err("bad count '" + tokens[1] + "'");
  }
  if (n > (std::uint64_t{1} << 28)) return err("ingest count too large");
  std::vector<Edge> batch;
  batch.reserve(std::min(n, kIngestReserveEdges));
  std::string line;
  for (std::uint64_t i = 0; i < n; ++i) {
    const LineRead read = read_line(in, line);
    if (read == LineRead::kTooLong) return err("line too long");
    if (read == LineRead::kEnd) {
      return err("ingest truncated after " + std::to_string(i) + " of " +
                 std::to_string(n) + " edges");
    }
    std::istringstream pair(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(pair >> u >> v)) return err("bad edge line '" + line + "'");
    batch.push_back({static_cast<VertexId>(std::min<std::uint64_t>(
                         u, std::uint64_t{0xffffffff})),
                     static_cast<VertexId>(std::min<std::uint64_t>(
                         v, std::uint64_t{0xffffffff}))});
  }
  return ok(ingest_summary(service.ingest_batch(batch)));
}

Response handle_stats(const ConnectivityService& service) {
  const ServiceStats stats = service.stats();
  std::ostringstream out;
  out << "epoch=" << stats.epoch << " vertices=" << stats.num_vertices
      << " base_edges=" << stats.base_edges
      << " pending=" << stats.pending_edges
      << " ingested=" << stats.ingested_edges
      << " rejected=" << stats.rejected_edges
      << " components=" << stats.components
      << " recompactions=" << stats.recompactions;
  return ok(out.str());
}

Response handle_help() {
  static constexpr const char* kUsage[] = {
      "same U V          1 iff U and V share a component",
      "size V            size of V's component",
      "count             number of components",
      "top K             K largest components (label size per line)",
      "add U V [U V ...] insert edges inline",
      "ingest N          insert N edges given on the next N lines",
      "recompact         force a full static re-solve",
      "verify            cross-check against a from-scratch solve",
      "stats             service counters",
      "quit              end the session",
  };
  std::ostringstream out;
  out << std::size(kUsage);
  for (const char* line : kUsage) out << "\n" << line;
  return ok(out.str());
}

}  // namespace

Response handle_command(ConnectivityService& service,
                        const std::string& line, std::istream& in) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  for (std::string token; stream >> token;) tokens.push_back(token);
  // Blank lines and #-comments are silently skipped, so command scripts
  // (the CI smoke legs) can be annotated.
  if (tokens.empty() || tokens[0][0] == '#') return Response{};

  const std::string& command = tokens[0];
  const VertexId n = service.num_vertices();

  if (command == "same") {
    if (tokens.size() != 3) return err("usage: same U V");
    const auto u = parse_vertex(tokens[1], n);
    const auto v = parse_vertex(tokens[2], n);
    if (!u || !v) return err("vertex out of range (n=" + std::to_string(n) + ")");
    return ok(service.same_component(*u, *v) ? "1" : "0");
  }
  if (command == "size") {
    if (tokens.size() != 2) return err("usage: size V");
    const auto v = parse_vertex(tokens[1], n);
    if (!v) return err("vertex out of range (n=" + std::to_string(n) + ")");
    return ok(std::to_string(service.component_size(*v)));
  }
  if (command == "count") {
    if (tokens.size() != 1) return err("usage: count");
    return ok(std::to_string(service.component_count()));
  }
  if (command == "top") {
    if (tokens.size() != 2) return err("usage: top K");
    std::uint64_t k = 0;
    try {
      k = std::stoull(tokens[1]);
    } catch (const std::exception&) {
      return err("bad count '" + tokens[1] + "'");
    }
    const auto top = service.top_components(k);
    std::ostringstream out;
    out << top.size();
    for (const ComponentInfo& c : top) {
      out << "\n" << c.label << " " << c.size;
    }
    return ok(out.str());
  }
  if (command == "add") return handle_add(service, tokens);
  if (command == "ingest") return handle_ingest(service, tokens, in);
  if (command == "recompact") {
    if (tokens.size() != 1) return err("usage: recompact");
    const std::uint64_t epoch = service.recompact();
    return ok("epoch=" + std::to_string(epoch) +
              " components=" + std::to_string(service.component_count()));
  }
  if (command == "verify") {
    if (tokens.size() != 1) return err("usage: verify");
    if (!service.verify_against_reference()) {
      return err("partition mismatch vs from-scratch reference solve");
    }
    return ok("verified components=" +
              std::to_string(service.component_count()));
  }
  if (command == "stats") return handle_stats(service);
  if (command == "help") return handle_help();
  if (command == "quit") {
    Response response = ok("bye");
    response.quit = true;
    return response;
  }
  return err("unknown command '" + command + "' (try: help)");
}

std::uint64_t serve_session(ConnectivityService& service, std::istream& in,
                            std::ostream& out) {
  std::uint64_t errors = 0;
  std::string line;
  for (LineRead read; (read = read_line(in, line)) != LineRead::kEnd;) {
    const Response response = read == LineRead::kTooLong
                                  ? err("line too long")
                                  : handle_command(service, line, in);
    if (!response.text.empty()) out << response.text << "\n";
    out.flush();
    if (!response.ok) ++errors;
    if (response.quit) break;
  }
  return errors;
}

}  // namespace thrifty::serve
