#include "serve/socket_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <system_error>
#include <thread>

#include "serve/protocol.hpp"

namespace thrifty::serve {
namespace {

/// Writes all of `data`, retrying on EINTR.  MSG_NOSIGNAL turns a peer
/// that already hung up into an error return instead of a SIGPIPE that
/// would end the whole server.
std::size_t send_all(int fd, const char* data, std::size_t count) {
  std::size_t sent = 0;
  while (sent < count) {
    const ssize_t n = ::send(fd, data + sent, count - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  return sent;
}

/// Minimal bidirectional streambuf over a connected socket fd: buffered
/// reads (getline-friendly), unbuffered writes (one syscall per
/// response flush keeps the protocol's request/response lockstep).
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, buffer_, sizeof buffer_);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    return send_all(fd_, &c, 1) == 1 ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* data, std::streamsize count) override {
    return static_cast<std::streamsize>(
        send_all(fd_, data, static_cast<std::size_t>(count)));
  }

 private:
  int fd_;
  char buffer_[4096];
};

/// Answers a connection the server cannot take and closes it.
void turn_away(int conn) {
  constexpr char kBusy[] = "ERR busy\n";
  send_all(conn, kBusy, sizeof kBusy - 1);
  ::close(conn);
}

struct Session {
  std::thread thread;
  /// Set by the session thread as its last action, so the accept loop
  /// can join it without blocking.
  std::atomic<bool> done{false};
};

}  // namespace

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listener, kMaxSessions) < 0) {
    const int error = errno;
    ::close(listener);
    throw std::system_error(error, std::generic_category(),
                            "bind/listen " + path);
  }
  return listener;
}

int accept_loop(ConnectivityService& service, int listener) {
  std::array<Session, kMaxSessions> sessions;
  int error = 0;
  while (true) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      error = errno;
      break;
    }
    Session* slot = nullptr;
    for (Session& session : sessions) {
      if (session.thread.joinable() &&
          session.done.load(std::memory_order_acquire)) {
        session.thread.join();
      }
      if (slot == nullptr && !session.thread.joinable()) slot = &session;
    }
    if (slot == nullptr) {
      turn_away(conn);
      continue;
    }
    slot->done.store(false, std::memory_order_relaxed);
    try {
      slot->thread = std::thread([&service, conn, slot] {
        try {
          FdStreambuf buf(conn);
          std::istream in(&buf);
          std::ostream out(&buf);
          serve_session(service, in, out);
        } catch (const std::exception& e) {
          // One failed session (out of memory, say) must not end the
          // server and every other session with it.
          std::fprintf(stderr, "serve: session failed: %s\n", e.what());
        }
        ::close(conn);
        slot->done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error&) {
      turn_away(conn);  // no thread to serve it
    }
  }
  for (Session& session : sessions) {
    if (session.thread.joinable()) session.thread.join();
  }
  return error;
}

}  // namespace thrifty::serve
