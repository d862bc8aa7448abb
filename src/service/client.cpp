#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "service/protocol.hpp"
#include "util/json.hpp"

namespace resched::service {
namespace {

/// Best-effort id extraction from a request line. Empty when the line has
/// no string id (then a retry would not be idempotent).
std::string ExtractId(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::Parse(line);
    const JsonValue* id = doc.Find("id");
    if (id != nullptr && id->IsString()) return std::string(id->AsString());
  } catch (const std::exception&) {
    // Not JSON: the server will reject it; nothing to match on.
  }
  return {};
}

void RealSleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

ClientEndpoint ClientEndpoint::Unix(std::string path) {
  ClientEndpoint ep;
  ep.tcp = false;
  ep.path = std::move(path);
  return ep;
}

ClientEndpoint ClientEndpoint::Tcp(std::string host, std::uint16_t port) {
  ClientEndpoint ep;
  ep.tcp = true;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

std::string ClientEndpoint::Describe() const {
  if (tcp) return host + ":" + std::to_string(port);
  return path;
}

RescheddClient::RescheddClient(std::string socket_path, ClientOptions options)
    : RescheddClient(ClientEndpoint::Unix(std::move(socket_path)),
                     std::move(options)) {}

RescheddClient::RescheddClient(ClientEndpoint endpoint, ClientOptions options)
    : endpoint_(std::move(endpoint)), options_(std::move(options)) {}

bool RescheddClient::ReadLine(std::string& out) {
  if (endpoint_.tcp) {
    return framer_->Read(out) == FrameResult::kFrame;
  }
  return reader_->ReadLine(out);
}

bool RescheddClient::SendLine(const std::string& line) {
  if (endpoint_.tcp) return WriteFrame(*socket_, line);
  return socket_->SendAll(line + "\n");
}

bool RescheddClient::Attempt(const std::string& line, const std::string& id,
                             Result& result) {
  if (!socket_) {
    if (endpoint_.tcp) {
      socket_ = std::make_unique<StreamSocket>(
          StreamSocket::ConnectTcp(endpoint_.host, endpoint_.port));
      framer_ = std::make_unique<FrameReader>(*socket_);
    } else {
      socket_ = std::make_unique<StreamSocket>(
          StreamSocket::Connect(endpoint_.path));
      reader_ = std::make_unique<SocketLineReader>(*socket_);
    }
    std::string greeting;
    if (!ReadLine(greeting)) return false;  // died mid-accept
    result.handshake = std::move(greeting);
  }
  if (!SendLine(line)) return false;
  std::string received;
  while (ReadLine(received)) {
    if (id.empty()) {
      // No id to match: the next line is the answer (single-shot mode).
      result.response = std::move(received);
      return true;
    }
    if (ResponseId(received) == id) {
      result.response = std::move(received);
      return true;
    }
    // Anything else — a replayed greeting, or a stale response to a
    // pre-reconnect submission the server finished late — is skipped.
  }
  return false;  // EOF before the matching response
}

RescheddClient::Result RescheddClient::Submit(const std::string& line) {
  return Submit(line, ExtractId(line));
}

RescheddClient::Result RescheddClient::Submit(const std::string& line,
                                              const std::string& id) {
  // Without an id the server cannot dedup a resend, so a retry could
  // execute twice; such lines get exactly one attempt.
  const std::size_t max_attempts =
      id.empty() ? 1 : std::max<std::size_t>(1, options_.max_attempts);
  const auto sleep_ms =
      options_.sleep_fn ? options_.sleep_fn
                        : std::function<void(double)>(RealSleepMs);

  Result result;
  double backoff_ms = options_.backoff_initial_ms;
  std::string last_error = "connection failed";
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      sleep_ms(backoff_ms);
      backoff_ms =
          std::min(backoff_ms * options_.backoff_multiplier,
                   options_.backoff_max_ms);
      ++result.reconnects;
    }
    ++result.attempts;
    try {
      if (Attempt(line, id, result)) return result;
      last_error = "server closed the connection before responding";
    } catch (const SocketError& e) {
      last_error = e.what();
    }
    framer_.reset();  // before the socket they borrow
    reader_.reset();
    socket_.reset();  // next attempt reconnects from scratch
  }
  throw SocketError("submit of id '" + id + "' to " + endpoint_.Describe() +
                    " failed after " + std::to_string(result.attempts) +
                    " attempt(s): " + last_error);
}

}  // namespace resched::service
