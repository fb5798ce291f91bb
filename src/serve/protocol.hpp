// Line-oriented command protocol over a ConnectivityService, shared by
// the thrifty_serve CLI's stdin REPL and its unix-socket server (and by
// the test suite, so both transports exercise the exact same parser).
//
// One command per line, space-separated tokens; every command yields
// exactly one response whose first token is "OK" or "ERR".  Multi-line
// payloads (top-k listings) keep the OK line first with the line count,
// so a client can read responses without lookahead:
//
//   same U V                -> OK 0|1
//   size V                  -> OK <component size>
//   count                   -> OK <component count>
//   top K                   -> OK <k> \n <label> <size> ...(k lines)
//   add U V [U V ...]       -> OK accepted=A rejected=R merges=M
//                                 epoch=E recompacted=0|1
//   ingest N                -> reads N following "U V" lines, then as add
//   recompact               -> OK epoch=E components=C
//   verify                  -> OK verified components=C   (or ERR)
//   stats                   -> OK epoch=... vertices=... components=...
//   help                    -> OK <n> \n usage lines
//   quit                    -> OK bye  (sets Response::quit)
//
// A line longer than kMaxLineBytes (a command or an ingest edge line)
// is discarded through its newline and answered "ERR line too long";
// the session goes on.
//
// Handlers are thread-safe: queries pin an epoch, mutations go through
// the service's serialised writer path, so concurrent socket clients
// need no locking of their own.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/service.hpp"

namespace thrifty::serve {

/// Longest line, newline excluded, the protocol reads.  Longer edge
/// batches go through `ingest N`.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 16;

struct Response {
  /// Full response text, possibly multi-line, without a trailing
  /// newline.  First token is "OK" or "ERR".
  std::string text;
  bool ok = true;
  /// Set by `quit`: the transport should close this session.
  bool quit = false;
};

/// Executes one command line.  Commands needing follow-up lines
/// (`ingest N`) read them from `in`.  Unknown or malformed commands
/// produce ERR responses, never exceptions — a resident service must
/// survive arbitrary input.
[[nodiscard]] Response handle_command(ConnectivityService& service,
                                      const std::string& line,
                                      std::istream& in);

/// Drives a whole session: reads lines from `in` until EOF or `quit`,
/// writing one response per command to `out`.  Returns the number of
/// ERR responses (the CLI's --fail-on-error exit code hook).
std::uint64_t serve_session(ConnectivityService& service, std::istream& in,
                            std::ostream& out);

}  // namespace thrifty::serve
