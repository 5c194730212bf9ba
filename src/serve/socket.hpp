// Portable (POSIX) TCP socket wrapper for the serve daemon: thin RAII
// types over the BSD socket calls, so everything platform-specific stays in
// this one translation unit. The protocol layer above only sees
// "line in, line out".
//
// Server side:  ListenSocket ls(port);   // port 0 -> ephemeral, ls.port()
//               Socket c = ls.accept();  // invalid after shutdown()
// Client side:  Socket c = connect_to("127.0.0.1", port);
// Both sides:   LineReader lr(c); lr.read_line(&line); c.send_line(line);
//
// Sockets bind/connect on the loopback interface only — the daemon is a
// local service behind a CLI, not an internet-facing endpoint; putting a
// real fleet of these behind a load balancer is a deployment concern, not
// a protocol one (docs/serving.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gnndse::serve {

/// RAII file descriptor for one connected TCP stream.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends the whole buffer (looping over partial writes). Returns false
  /// on any send error (peer gone); never throws.
  bool send_all(const char* data, std::size_t len);
  bool send_line(const std::string& line);  // appends '\n'

  /// Reads up to `cap` bytes; returns bytes read, 0 on orderly shutdown,
  /// -1 on error.
  long recv_some(char* buf, std::size_t cap);

  /// Shuts down both directions without closing the fd — unblocks a
  /// thread parked in recv on this socket. Safe to call from another
  /// thread.
  void shutdown_both();

  /// Read side only: unblocks recv while keeping the write side open, so
  /// drain can stop intake and still flush queued responses.
  void shutdown_read();

  void close();

 private:
  int fd_ = -1;
};

/// Longest line a LineReader accepts, excluding the '\n'. The largest
/// request is a predict or sweep carrying a whole kernel as JSON, a few KB
/// for the suite and generated kernels.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Buffered '\n'-delimited line reader over a Socket.
class LineReader {
 public:
  explicit LineReader(Socket& s) : sock_(s) {}

  /// Blocks until one full line arrives. Returns false on EOF/error with
  /// no complete line buffered, or once a line exceeds kMaxLineBytes
  /// (too_long() then stays true). The trailing '\n' (and a preceding
  /// '\r') is stripped.
  bool read_line(std::string* line);

  bool too_long() const { return too_long_; }

 private:
  Socket& sock_;
  std::string buf_;
  /// Bytes of buf_ already searched for '\n': each recv scans only the
  /// new bytes, so a long line costs linear, not quadratic, time.
  std::size_t scanned_ = 0;
  bool eof_ = false;
  bool too_long_ = false;
};

/// Listening socket on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port; query the outcome with port()). Throws std::runtime_error when
/// bind/listen fails.
class ListenSocket {
 public:
  explicit ListenSocket(std::uint16_t port);
  ~ListenSocket() { close(); }
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Blocks for the next connection; an invalid Socket means the listener
  /// was shut down (drain) or errored.
  Socket accept();

  /// Unblocks accept() from another thread; subsequent accepts fail.
  void shutdown();

  std::uint16_t port() const { return port_; }

 private:
  void close();

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1-style `host`:`port`; throws std::runtime_error on
/// failure (used by `gnndse client` and the tests).
Socket connect_to(const std::string& host, std::uint16_t port);

}  // namespace gnndse::serve
