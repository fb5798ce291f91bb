// thrifty_serve — resident connectivity service over a loaded graph.
//
// Loads a graph (file or gen: spec), runs the initial static Thrifty
// solve, then answers line-oriented connectivity commands
// (serve/protocol.hpp): same/size/count/top queries, add/ingest edge
// batches through the concurrent union-find hooks, explicit recompact,
// and a from-scratch verify.  Two transports share the same handler:
//
//   thrifty_serve GRAPH                    stdin/stdout REPL (default)
//   thrifty_serve GRAPH --socket=PATH      AF_UNIX server, one thread
//                                          per connection, at most
//                                          serve::kMaxSessions at once
//
//   --mmap                 load .bin snapshots as zero-copy mapped views
//   --staleness=FRAC       recompact when pending edges exceed FRAC of
//                          the base undirected edge count (default 0.25)
//   --staleness-edges=N    absolute pending-edge trigger (overrides FRAC)
//   --no-auto-recompact    only recompact on explicit command
//   --fail-on-error        exit 1 if any command produced an ERR response
//
// Protocol responses go to stdout; diagnostics to stderr, so piped
// sessions stay machine-readable.  `quit` (or EOF) ends a session; the
// socket server runs until killed.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/socket_server.hpp"
#include "tools/tool_common.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

constexpr const char* kUsage =
    "usage: thrifty_serve GRAPH [--mmap] [--staleness=FRAC]\n"
    "                     [--staleness-edges=N] [--no-auto-recompact]\n"
    "                     [--socket=PATH] [--fail-on-error]\n"
    "GRAPH is a path (.el/.txt/.bin/.mtx) or a gen: spec, e.g.\n"
    "  thrifty_serve gen:rmat:scale=14,ef=16\n";

int serve_socket(serve::ConnectivityService& service,
                 const std::string& path) {
  const int listener = serve::listen_unix(path);
  std::fprintf(stderr, "thrifty_serve: listening on %s\n", path.c_str());
  const int error = serve::accept_loop(service, listener);
  std::fprintf(stderr, "thrifty_serve: accept: %s\n", std::strerror(error));
  ::close(listener);
  ::unlink(path.c_str());
  return 1;
}

int run(int argc, char** argv) {
  const tools::ArgParser args(argc, argv);
  if (args.has_flag("help") || args.positional().size() != 1) {
    std::fprintf(stderr, "%s", kUsage);
    return args.has_flag("help") ? 0 : 2;
  }
  const auto unknown = args.unknown_flags(
      {"mmap", "staleness", "staleness-edges", "no-auto-recompact",
       "socket", "fail-on-error", "help"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n%s", unknown.front().c_str(),
                 kUsage);
    return 2;
  }

  tools::LoadOptions load;
  load.use_mmap = args.has_flag("mmap");
  graph::CsrGraph graph = tools::load_graph(args.positional()[0], load);
  std::fprintf(stderr, "thrifty_serve: %s\n",
               tools::summarize(graph).c_str());

  serve::ServeOptions options;
  options.staleness_fraction =
      args.flag_double("staleness", options.staleness_fraction);
  options.staleness_edges = static_cast<std::uint64_t>(args.flag_int(
      "staleness-edges", static_cast<std::int64_t>(options.staleness_edges)));
  options.auto_recompact = !args.has_flag("no-auto-recompact");

  serve::ConnectivityService service(std::move(graph), options);
  const serve::ServiceStats stats = service.stats();
  std::fprintf(stderr,
               "thrifty_serve: ready, %u vertices, %llu components, "
               "epoch %llu\n",
               stats.num_vertices,
               static_cast<unsigned long long>(stats.components),
               static_cast<unsigned long long>(stats.epoch));

  if (const auto socket_path = args.flag("socket")) {
    return serve_socket(service, *socket_path);
  }

  const std::uint64_t errors =
      serve::serve_session(service, std::cin, std::cout);
  if (errors != 0) {
    std::fprintf(stderr,
                 "thrifty_serve: session finished with %llu ERR responses\n",
                 static_cast<unsigned long long>(errors));
  }
  return (args.has_flag("fail-on-error") && errors != 0) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
