// Resilient reschedd client: reconnect + idempotent resubmission.
//
// A client that loses its connection mid-request cannot tell a crashed
// daemon from a slow one, or a lost request from a lost *response*. The
// only safe recovery is to reconnect and resubmit the same line — which is
// exactly what the server's id-keyed dedup ledger makes idempotent: a
// finished id is re-answered from recorded history ("dedup", bit-identical
// body), an in-flight id is not executed twice, and an id the server never
// saw is executed once. The client therefore requires an explicit request
// id before it will retry; a line without one gets a single attempt.
//
// Reconnection uses capped exponential backoff (initial * multiplier^k,
// clamped to the cap) so a hundred clients hammering a restarting daemon
// back off instead of thundering.
//
// Two endpoint kinds share the retry machinery: unix-domain sockets speak
// the newline protocol, TCP endpoints speak RSF frames (see framing.hpp).
// The protocol payload is identical either way — a frame carries exactly
// one line, minus its trailing newline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "service/framing.hpp"
#include "util/socket.hpp"

namespace resched::service {

struct ClientOptions {
  /// Total submission attempts (first try + retries) before giving up.
  std::size_t max_attempts = 5;
  double backoff_initial_ms = 20.0;
  double backoff_max_ms = 1000.0;  ///< cap on any single sleep
  double backoff_multiplier = 2.0;
  /// Backoff sleep hook (milliseconds). Defaults to a real sleep; tests
  /// substitute a recorder to assert the capped-exponential sequence
  /// without wall-clock time.
  std::function<void(double)> sleep_fn;
};

/// Where the daemon lives: a unix-domain socket path (line protocol) or a
/// TCP host:port (framed protocol).
struct ClientEndpoint {
  static ClientEndpoint Unix(std::string path);
  static ClientEndpoint Tcp(std::string host, std::uint16_t port);

  bool tcp = false;
  std::string path;  ///< unix only
  std::string host;  ///< tcp only
  std::uint16_t port = 0;

  std::string Describe() const;  ///< for error messages
};

class RescheddClient {
 public:
  explicit RescheddClient(std::string socket_path, ClientOptions options = {});
  explicit RescheddClient(ClientEndpoint endpoint, ClientOptions options = {});

  RescheddClient(const RescheddClient&) = delete;
  RescheddClient& operator=(const RescheddClient&) = delete;

  struct Result {
    std::string response;   ///< matched response line (id included)
    std::string handshake;  ///< greeting from the serving connection
    std::size_t attempts = 0;
    std::size_t reconnects = 0;
  };

  /// Submits one request line and blocks for the response whose id matches
  /// the line's id. On a connection failure the line is resubmitted over a
  /// fresh connection (safe — see header) up to max_attempts, after which
  /// the last SocketError propagates. A line with no parsable id is sent
  /// at most once.
  Result Submit(const std::string& line);

  /// As above for a caller that already knows the line's id (empty: the
  /// line has none), so the line is not parsed again to find it.
  Result Submit(const std::string& line, const std::string& id);

 private:
  /// One connect + send + match cycle; false when the connection died
  /// (caller backs off and retries).
  bool Attempt(const std::string& line, const std::string& id, Result& result);

  /// Reads the next protocol line from the live connection, via the line
  /// reader (unix) or the frame reader (tcp). False on EOF or torn frame.
  bool ReadLine(std::string& out);

  /// Sends one protocol line: newline-terminated raw bytes (unix) or one
  /// RSF frame (tcp). False when the peer is gone.
  bool SendLine(const std::string& line);

  const ClientEndpoint endpoint_;
  const ClientOptions options_;
  std::unique_ptr<StreamSocket> socket_;
  std::unique_ptr<SocketLineReader> reader_;  ///< unix mode
  std::unique_ptr<FrameReader> framer_;       ///< tcp mode
};

}  // namespace resched::service
