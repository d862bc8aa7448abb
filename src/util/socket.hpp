// Minimal stream socket wrappers for the reschedd service.
//
// Deliberately tiny: blocking I/O only, SOCK_STREAM only (Unix-domain and
// localhost TCP), framing left to the caller (service/transport.hpp splits
// lines; service/framing.hpp speaks length-prefixed frames over TCP).
// Every syscall return value is checked; failures surface as SocketError
// with errno context instead of being silently dropped — the
// no-unchecked-syscall-return lint rule enforces the same discipline over
// the service layer built on top of this. Send/recv route through the
// util/io_faults shim so the chaos harness covers both address families.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace resched {

class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A connected stream socket (owns the fd; move-only). Address-family
/// agnostic: Connect() produces a Unix-domain connection, ConnectTcp() a
/// TCP one, and accepted sockets from either listener behave identically.
class StreamSocket {
 public:
  StreamSocket() = default;
  explicit StreamSocket(int fd) : fd_(fd) {}
  ~StreamSocket();

  StreamSocket(StreamSocket&& other) noexcept;
  StreamSocket& operator=(StreamSocket&& other) noexcept;
  StreamSocket(const StreamSocket&) = delete;
  StreamSocket& operator=(const StreamSocket&) = delete;

  /// Connects to the Unix-domain listener at `path`; throws SocketError on
  /// failure.
  static StreamSocket Connect(const std::string& path);

  /// Connects over TCP (with TCP_NODELAY — the protocol is
  /// request/response, so Nagle only adds latency). `host` is a numeric
  /// IPv4 address or "localhost"; throws SocketError on failure.
  static StreamSocket ConnectTcp(const std::string& host, std::uint16_t port);

  bool Valid() const { return fd_ >= 0; }

  /// Writes the whole buffer (SIGPIPE suppressed). Returns false when the
  /// peer is gone (EPIPE/ECONNRESET); throws SocketError on other errors.
  bool SendAll(std::string_view data);

  /// Appends up to a chunk of received bytes to `buffer`. Returns false on
  /// orderly EOF; throws SocketError on failure.
  bool RecvSome(std::string& buffer);

  /// Closes the fd (idempotent). Close errors are swallowed by the
  /// destructor but reported here.
  void Close();

  /// shutdown(2) both directions without closing the fd (idempotent,
  /// best-effort). Unlike Close this is safe to call from another thread
  /// while a reader is parked in recv(2) — and it is the only reliable way
  /// to wake that reader, which then sees an orderly EOF.
  void Shutdown();

 private:
  int fd_ = -1;
};

/// Back-compat alias from before the TCP transport landed; new code should
/// say StreamSocket.
using UnixSocket = StreamSocket;

/// A bound + listening Unix-domain socket. Unlinks a stale socket file on
/// bind and removes its own on destruction.
class UnixListener {
 public:
  /// Binds and listens on `path`; throws SocketError on failure (including
  /// paths longer than sockaddr_un allows, ~107 bytes).
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Blocks for the next connection. Returns nullopt once the listener was
  /// closed (concurrently or before the call); throws SocketError on other
  /// accept failures.
  std::optional<StreamSocket> Accept();

  /// Closes the listening fd, waking a blocked Accept() with nullopt.
  void Close();

  const std::string& Path() const { return path_; }

 private:
  /// Atomic: Close() on one thread clears it while Accept() on another
  /// reads it.
  std::atomic<int> fd_{-1};
  std::string path_;
};

/// A bound + listening TCP socket. `port` 0 binds an ephemeral port; the
/// kernel-assigned number is readable through Port() (tests and the CLI
/// print it so clients can find the daemon).
class TcpListener {
 public:
  /// Binds and listens on host:port (SO_REUSEADDR set); throws SocketError
  /// on failure. `host` is a numeric IPv4 address or "localhost".
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Blocks for the next connection (TCP_NODELAY set on the accepted
  /// socket). Returns nullopt once the listener was closed; throws
  /// SocketError on other accept failures.
  std::optional<StreamSocket> Accept();

  /// Closes the listening fd, waking a blocked Accept() with nullopt.
  void Close();

  const std::string& Host() const { return host_; }
  std::uint16_t Port() const { return port_; }

 private:
  /// Atomic for the same Close()/Accept() hand-off as UnixListener.
  std::atomic<int> fd_{-1};
  std::string host_;
  std::uint16_t port_ = 0;
};

/// Buffered line reader over a StreamSocket: splits on '\n' (the
/// terminator is not included in `line`). Returns false on EOF with no
/// buffered data.
class SocketLineReader {
 public:
  explicit SocketLineReader(StreamSocket& socket) : socket_(&socket) {}

  bool ReadLine(std::string& line);

 private:
  StreamSocket* socket_;
  std::string buffer_;
  bool eof_ = false;
};

}  // namespace resched
