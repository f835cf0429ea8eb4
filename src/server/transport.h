#ifndef TELEIOS_SERVER_TRANSPORT_H_
#define TELEIOS_SERVER_TRANSPORT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace teleios::server {

/// The swappable socket seam, mirroring the FileSystem seam in io/: all
/// server and client byte traffic flows through a process-default
/// Transport, so tests can interpose a FaultInjectingTransport and
/// subject the wire to the same deterministic kill-at-every-op sweeps
/// the storage layer gets from FaultInjectingFileSystem. The production
/// implementation (TcpTransport) delegates straight to the Socket RAII
/// wrapper — socket.cc remains the only raw-syscall file (TL006).
///
/// One established byte stream. Semantics match Socket exactly (the
/// contract every caller was written against):
///  - ReadSome: whatever has arrived, up to `n` bytes, waiting at most
///    `timeout_millis` for the first; 0 on clean EOF, kUnavailable on
///    timeout. The one read primitive: FrameReader (protocol.h) builds
///    frames, the preamble sniff and HTTP requests on it.
///  - WriteAll: kIoError when the peer is gone; with timeout_millis > 0
///    a stalled peer (send buffer full for that long) fails
///    kDeadlineExceeded instead of blocking forever — the server's
///    defense against readers that stop reading.
class Connection {
 public:
  virtual ~Connection() = default;

  virtual Result<size_t> ReadSome(void* dst, size_t n,
                                  int timeout_millis) = 0;
  virtual Status WriteAll(std::string_view data, int timeout_millis = 0) = 0;

  /// Half-closes both directions; blocked peers see EOF. Idempotent and
  /// callable from another thread while a read is parked (the drain and
  /// reaper paths).
  virtual void ShutdownBoth() = 0;
  virtual void Close() = 0;

  virtual bool valid() const = 0;
  /// "ip:port" of the remote end.
  virtual const std::string& peer() const = 0;
};

/// One bound listen socket.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Waits up to `timeout_millis` for a connection; kUnavailable on
  /// timeout (the caller's cue to re-check its stop flag), kCancelled
  /// once the listener was shut down.
  virtual Result<std::unique_ptr<Connection>> AcceptWithTimeout(
      int timeout_millis) = 0;

  virtual int bound_port() const = 0;
  virtual void ShutdownBoth() = 0;
  virtual void Close() = 0;
};

/// Factory for the two endpoint roles.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> Listen(int port,
                                                   int backlog) = 0;
  virtual Result<std::unique_ptr<Connection>> Connect(
      const std::string& host, int port) = 0;
};

/// Real TCP via the Socket wrapper in socket.h.
class TcpTransport : public Transport {
 public:
  Result<std::unique_ptr<Listener>> Listen(int port, int backlog) override;
  Result<std::unique_ptr<Connection>> Connect(const std::string& host,
                                              int port) override;
};

/// The process-default transport: TcpTransport unless overridden with
/// SetTransport. Never nullptr.
Transport* GetTransport();

/// Installs `transport` as the process-default (nullptr restores the
/// TCP singleton); returns the previous default. Not thread-safe —
/// intended for test harnesses, installed before any traffic starts.
Transport* SetTransport(Transport* transport);

/// RAII override of the process-default Transport.
class ScopedTransport {
 public:
  explicit ScopedTransport(Transport* transport)
      : prev_(SetTransport(transport)) {}
  ~ScopedTransport() { SetTransport(prev_); }
  ScopedTransport(const ScopedTransport&) = delete;
  ScopedTransport& operator=(const ScopedTransport&) = delete;

 private:
  Transport* prev_;
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_TRANSPORT_H_
