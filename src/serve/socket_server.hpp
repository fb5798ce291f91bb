// Unix-socket transport for the line protocol (serve/protocol.hpp), used
// by `thrifty_serve --socket=PATH`.  Each connection runs serve_session
// on its own thread; the service's own synchronisation (snapshot pinning
// plus the serialised writer) makes concurrent sessions safe.
#pragma once

#include <string>

#include "serve/service.hpp"

namespace thrifty::serve {

/// Sessions the socket server runs at once, equal to its listen backlog.
/// A connection beyond them is answered "ERR busy" and closed.
inline constexpr int kMaxSessions = 16;

/// Binds a Unix stream socket at `path` (replacing a stale socket file
/// there) and listens on it with a backlog of kMaxSessions.  Returns the
/// listening descriptor; throws std::system_error, or
/// std::invalid_argument when `path` does not fit a socket address.
[[nodiscard]] int listen_unix(const std::string& path);

/// Accepts connections on `listener` and serves each on its own thread,
/// at most kMaxSessions at a time.  accept is retried when a signal
/// interrupts it; any other accept failure (for example, `listener` shut
/// down) ends the loop, which then waits for every open session to end.
/// Returns the errno of that failure.
int accept_loop(ConnectivityService& service, int listener);

}  // namespace thrifty::serve
