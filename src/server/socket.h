#ifndef TELEIOS_SERVER_SOCKET_H_
#define TELEIOS_SERVER_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace teleios::server {

/// RAII wrapper over one POSIX TCP socket. This file (with socket.cc)
/// is the only place in TELEIOS allowed to touch the raw socket API —
/// teleios_lint rule TL006 fences socket(2)/accept(2)/htons and friends
/// into src/server/, the same boundary contract TL001 enforces for file
/// I/O and src/io/.
///
/// All operations are blocking with explicit timeouts where waiting
/// must be interruptible (AcceptWithTimeout, ReadSome): the server's
/// drain logic depends on handlers noticing a shutdown flag between
/// polls rather than parking forever in recv(2).
class Socket {
 public:
  Socket() = default;
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_),
        bound_port_(other.bound_port_),
        peer_(std::move(other.peer_)) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port,
  /// readable afterwards via bound_port()).
  static Result<Socket> Listen(int port, int backlog = 128);

  /// Connects to `host`:`port` (numeric IPv4, typically loopback).
  static Result<Socket> Connect(const std::string& host, int port);

  /// Waits up to `timeout_millis` for a connection; kUnavailable on
  /// timeout (the caller's cue to re-check its stop flag), kCancelled
  /// once the socket was shut down.
  Result<Socket> AcceptWithTimeout(int timeout_millis);

  /// Reads up to `n` bytes, waiting at most `timeout_millis` for the
  /// first byte. Returns 0 on clean EOF, kUnavailable on timeout (the
  /// poll slice after which a reader checks for a drain or a deadline),
  /// kIoError otherwise.
  Result<size_t> ReadSome(void* dst, size_t n, int timeout_millis);

  /// Writes all of `data`; kIoError when the peer is gone (EPIPE /
  /// ECONNRESET) — the server treats that as the client abandoning the
  /// stream. With `timeout_millis` > 0 a peer whose receive window stays
  /// full that long (a reader that stopped reading) fails the write with
  /// kDeadlineExceeded instead of parking this thread forever — the
  /// server's per-write timeout that frees a pool worker from a stalled
  /// client.
  Status WriteAll(std::string_view data, int timeout_millis = 0);

  /// Half-closes both directions; blocked peers see EOF. Idempotent.
  void ShutdownBoth();

  void Close();

  bool valid() const { return fd_ >= 0; }
  /// The locally bound port (listen sockets; 0 otherwise).
  int bound_port() const { return bound_port_; }
  /// "ip:port" of the remote end (accepted/connected sockets).
  const std::string& peer() const { return peer_; }

  /// Disables Nagle's algorithm — small request/response frames should
  /// not wait out the delayed-ACK timer.
  void SetNoDelay();

 private:
  int fd_ = -1;
  int bound_port_ = 0;
  std::string peer_;
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_SOCKET_H_
