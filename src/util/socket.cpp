#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/io_faults.hpp"

namespace resched {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

/// Bounded retry budget for transient errno results (EINTR, and EAGAIN
/// under fault injection — these are blocking sockets, so a real kernel
/// never returns EAGAIN here). Finite so a 100%-fault spec terminates
/// with an error instead of spinning forever.
constexpr int kMaxTransientRetries = 128;

sockaddr_un MakeAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw SocketError("unix socket path empty or too long (" +
                      std::to_string(path.size()) + " bytes): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Numeric-IPv4-or-"localhost" resolver. Deliberately not getaddrinfo:
/// the fleet runs on loopback (tests, single-host deployments) and a
/// resolver stub keeps connect/bind deterministic and dependency-free.
sockaddr_in MakeInetAddress(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("not a numeric IPv4 address (or \"localhost\"): " +
                      host);
  }
  return addr;
}

void SetNoDelay(int fd) {
  const int one = 1;
  // Best effort: losing Nagle-off costs latency, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// -------------------------------------------------------------- StreamSocket

StreamSocket::~StreamSocket() {
  if (fd_ >= 0) {
    // Best effort in a destructor: nothing useful can be done with a close
    // failure during unwinding.
    (void)::close(fd_);
    fd_ = -1;
  }
}

StreamSocket::StreamSocket(StreamSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

StreamSocket& StreamSocket::operator=(StreamSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) (void)::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

StreamSocket StreamSocket::Connect(const std::string& path) {
  const sockaddr_un addr = MakeAddress(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  StreamSocket s(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ThrowErrno("connect to " + path);
  }
  return s;
}

StreamSocket StreamSocket::ConnectTcp(const std::string& host,
                                      std::uint16_t port) {
  const sockaddr_in addr = MakeInetAddress(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  StreamSocket s(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ThrowErrno("connect to " + host + ":" + std::to_string(port));
  }
  SetNoDelay(fd);
  return s;
}

bool StreamSocket::SendAll(std::string_view data) {
  if (fd_ < 0) throw SocketError("SendAll on a closed socket");
  std::size_t sent = 0;
  int transient = 0;
  while (sent < data.size()) {
    const ssize_t n = io_faults::Send(fd_, data.data() + sent,
                                      data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if ((errno == EINTR || errno == EAGAIN) &&
          ++transient < kMaxTransientRetries) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) return false;
      ThrowErrno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool StreamSocket::RecvSome(std::string& buffer) {
  if (fd_ < 0) throw SocketError("RecvSome on a closed socket");
  char chunk[4096];
  int transient = 0;
  for (;;) {
    const ssize_t n = io_faults::Recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if ((errno == EINTR || errno == EAGAIN) &&
          ++transient < kMaxTransientRetries) {
        continue;
      }
      ThrowErrno("recv");
    }
    if (n == 0) return false;  // orderly EOF
    buffer.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

void StreamSocket::Shutdown() {
  if (fd_ < 0) return;
  (void)::shutdown(fd_, SHUT_RDWR);
}

void StreamSocket::Close() {
  if (fd_ < 0) return;
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) ThrowErrno("close");
}

// --------------------------------------------------------------- UnixListener

UnixListener::UnixListener(const std::string& path) : path_(path) {
  const sockaddr_un addr = MakeAddress(path);
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; remove it first. ENOENT is
  // the expected case.
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    ThrowErrno("unlink stale socket " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    ThrowErrno("bind " + path);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    ThrowErrno("listen on " + path);
  }
  fd_.store(fd);
}

UnixListener::~UnixListener() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) (void)::close(fd);
  if (!path_.empty()) {
    (void)::unlink(path_.c_str());
  }
}

std::optional<StreamSocket> UnixListener::Accept() {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return std::nullopt;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) return StreamSocket(client);
    if (errno == EINTR) continue;
    // Close() from another thread closes the fd under us; accept then
    // reports EBADF (or ECONNABORTED/EINVAL depending on timing). All mean
    // "listener is gone", which is the orderly-shutdown signal.
    if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED) {
      return std::nullopt;
    }
    ThrowErrno("accept on " + path_);
  }
}

void UnixListener::Close() {
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // close(2) alone does not wake a sibling thread parked in accept(2);
  // shutdown(2) does for AF_UNIX listeners (accept reports EINVAL, which
  // Accept treats as the orderly-shutdown signal).
  (void)::shutdown(fd, SHUT_RDWR);
  if (::close(fd) != 0) ThrowErrno("close listener");
}

// ---------------------------------------------------------------- TcpListener

TcpListener::TcpListener(const std::string& host, std::uint16_t port)
    : host_(host), port_(port) {
  sockaddr_in addr = MakeInetAddress(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  // Without SO_REUSEADDR a restart within TIME_WAIT of the old daemon's
  // connections fails with EADDRINUSE; harmless for the ephemeral-port
  // (port 0) case tests use.
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    ThrowErrno("setsockopt SO_REUSEADDR");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    ThrowErrno("bind " + host + ":" + std::to_string(port));
  }
  if (port == 0) {
    // Learn the kernel-assigned ephemeral port so callers can announce it.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const int saved = errno;
      (void)::close(fd);
      errno = saved;
      ThrowErrno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    ThrowErrno("listen on " + host + ":" + std::to_string(port_));
  }
  fd_.store(fd);
}

TcpListener::~TcpListener() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) (void)::close(fd);
}

std::optional<StreamSocket> TcpListener::Accept() {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return std::nullopt;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      if (fd_.load() < 0) {
        // Close() ran while we were parked: this is (or races with) its
        // wake-up self-connection, not a client to serve.
        (void)::close(client);
        return std::nullopt;
      }
      SetNoDelay(client);
      return StreamSocket(client);
    }
    if (errno == EINTR) continue;
    // Same orderly-shutdown contract as UnixListener::Accept.
    if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED) {
      return std::nullopt;
    }
    ThrowErrno("accept on " + host_ + ":" + std::to_string(port_));
  }
}

void TcpListener::Close() {
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // Unlike the AF_UNIX case, neither close(2) nor shutdown(2) wakes a
  // thread parked in accept(2) on a TCP listener (observed on Linux 6.x).
  // Complete one throwaway self-connection instead: accept returns it,
  // sees fd_ already cleared, and reports the orderly shutdown.
  const int wake = ::socket(AF_INET, SOCK_STREAM, 0);
  if (wake >= 0) {
    sockaddr_in addr =
        MakeInetAddress(host_ == "0.0.0.0" ? "127.0.0.1" : host_, port_);
    (void)::connect(wake, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
    (void)::close(wake);
  }
  if (::close(fd) != 0) ThrowErrno("close listener");
}

// ----------------------------------------------------------- SocketLineReader

bool SocketLineReader::ReadLine(std::string& line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    if (eof_) {
      if (buffer_.empty()) return false;
      line = std::move(buffer_);  // unterminated trailing line
      buffer_.clear();
      return true;
    }
    if (!socket_->RecvSome(buffer_)) eof_ = true;
  }
}

}  // namespace resched
