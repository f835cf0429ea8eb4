#ifndef TELEIOS_SERVER_SERVER_H_
#define TELEIOS_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/observatory.h"
#include "exec/thread_pool.h"
#include "server/dedup.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/transport.h"

namespace teleios::server {

struct ServerConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (tests).
  int port = 0;
  /// Live connections served at once; further arrivals are shed with a
  /// protocol ERROR / HTTP 503 before any session state is built.
  /// TELEIOS_SERVER_MAX_SESSIONS, default 64.
  int max_sessions = 64;
  /// Shared secret required in HELLO / the Authorization: Bearer header;
  /// empty disables authentication. TELEIOS_AUTH_TOKEN.
  std::string auth_token;
  /// Rows per ROWS frame — the streaming granularity. The serialized
  /// frame is charged to the session budget while in flight, so this
  /// (not the result size) bounds per-connection server-side buffering.
  /// TELEIOS_SERVER_CHUNK_ROWS, default 1024.
  size_t chunk_rows = 1024;
  /// Per-session memory budget (child of the process root) that session
  /// statements and the streaming window charge against.
  /// TELEIOS_SESSION_MEMORY_BUDGET (k/m/g suffixes), default unlimited.
  size_t session_budget_bytes = governor::MemoryBudget::kUnlimited;
  /// Largest HTTP request (head + body) the facade accepts.
  size_t max_http_bytes = 1u << 20;
  /// Kernel accept backlog on the listen socket — arrivals beyond it
  /// are refused by the kernel before the accept loop ever sees them.
  /// TELEIOS_SERVER_BACKLOG, default 128.
  int backlog = 128;
  /// Session lease: a binary session idle longer than this (no frame,
  /// no PING) is reaped — its connection is closed and its budget and
  /// registry entry released. 0 disables the reaper.
  /// TELEIOS_SERVER_LEASE_MS, default 60000.
  int64_t lease_millis = 60'000;
  /// Per-write timeout: a client that stops reading long enough for a
  /// frame write to stall this long is killed (the stream aborts, the
  /// session unwinds). 0 disables. TELEIOS_SERVER_WRITE_TIMEOUT_MS,
  /// default 30000.
  int write_timeout_millis = 30'000;
  /// Completed mutating statements remembered per client for idempotent
  /// retry. TELEIOS_SERVER_DEDUP_WINDOW, default 128.
  int dedup_window = 128;

  static ServerConfig FromEnv();
};

/// The observatory's network front door: one loopback TCP listener
/// shared by the binary wire protocol (see protocol.h) and a minimal
/// HTTP/1.1 JSON facade, distinguished by the first four bytes of each
/// connection. Connections are served thread-per-connection on a
/// dedicated exec::ThreadPool (never the global morsel pool — a parked
/// recv must not starve a running scan).
///
/// Every statement a connection runs flows through the same governed
/// path as in-process callers — ActiveQueryRegistry registration,
/// admission control, per-query budget as a child of the session budget
/// — and its cancellation token chains to the connection token, so a
/// CANCEL frame or a dropped socket cooperatively stops the running
/// morsel loop.
///
/// Shutdown() is the SIGTERM path: stop accepting, let in-flight
/// statements finish streaming, force-close stragglers after the drain
/// window, then write a final WAL checkpoint when the observatory is
/// durable.
class TeleiosServer {
 public:
  TeleiosServer(core::VirtualEarthObservatory* observatory,
                ServerConfig config = ServerConfig::FromEnv());
  ~TeleiosServer();

  TeleiosServer(const TeleiosServer&) = delete;
  TeleiosServer& operator=(const TeleiosServer&) = delete;

  /// Binds, registers sys.sessions with the observatory, and starts the
  /// accept loop. Fails (kIoError) when the port is taken.
  Status Start();

  /// Graceful drain; safe to call twice. Blocks up to `drain_timeout`
  /// waiting for live sessions to finish their current statement, then
  /// cancels and force-closes the rest, joins the connection pool, and
  /// checkpoints a durable observatory.
  Status Shutdown(
      std::chrono::milliseconds drain_timeout = std::chrono::seconds(5));

  /// The bound port (after Start; the ephemeral port when config.port
  /// was 0).
  int port() const { return port_; }
  bool running() const { return started_ && !stopping_; }
  bool draining() const { return draining_; }

  SessionRegistry& sessions() { return sessions_; }
  DedupRegistry& dedup() { return dedup_; }
  const ServerConfig& config() const { return config_; }

 private:
  void AcceptLoop();
  /// The lease reaper: polls the session registry and force-closes
  /// sessions idle past config_.lease_millis (see
  /// SessionRegistry::ReapExpired).
  void ReapLoop();
  /// Sheds one connection before session setup: sniffs just enough to
  /// answer in the right protocol, replies kUnavailable / 503, closes.
  void ShedConnection(std::unique_ptr<Connection> conn);
  void HandleConnection(std::unique_ptr<Connection> conn);
  /// The binary protocol and the HTTP facade, each reading through the
  /// connection's one FrameReader (which already holds the preamble
  /// sniff's bytes; ServeBinary's reader is past the magic).
  void ServeBinary(Connection* conn, FrameReader* reader,
                   const std::shared_ptr<Session>& session);
  void ServeHttp(Connection* conn, FrameReader* reader,
                 const std::shared_ptr<Session>& session);

  /// Writes `frames` (whole frames) in one write under the per-write
  /// timeout; a stalled client surfaces kDeadlineExceeded (counted, the
  /// event naming `opcode`) and kills the connection.
  Status Send(Connection* conn, const std::shared_ptr<Session>& session,
              std::string_view frames, Opcode opcode);
  /// Send of one frame.
  Status WriteFrame(Connection* conn,
                    const std::shared_ptr<Session>& session, Opcode opcode,
                    std::string_view payload);

  /// Runs one statement through the observatory's governed entry points
  /// and streams the result (SCHEMA / ROWS* / DONE) or an ERROR frame.
  /// The returned status is the *connection's* health: engine errors are
  /// reported to the client and return OK here; only a dead socket is
  /// non-OK. A nonzero `request_id` (on a session that declared a
  /// client_id) goes through the dedup window: a duplicate replays the
  /// recorded outcome instead of re-executing.
  Status RunAndStream(Connection* conn,
                      const std::shared_ptr<Session>& session, Lang lang,
                      const std::string& statement, uint64_t deadline_millis,
                      uint64_t request_id = 0);

  /// Streams one materialized table as SCHEMA / ROWS* / DONE, one write
  /// per chunk (SCHEMA with the first, DONE with the last) — shared by
  /// fresh results and dedup replays.
  Status StreamTable(Connection* conn,
                     const std::shared_ptr<Session>& session,
                     const storage::Table& table);

  Result<storage::Table> RunStatement(
      const std::shared_ptr<Session>& session, Lang lang,
      const std::string& statement, uint64_t deadline_millis);

  core::VirtualEarthObservatory* const observatory_;
  const ServerConfig config_;
  SessionRegistry sessions_;
  DedupRegistry dedup_;
  std::unique_ptr<Listener> listener_;
  int port_ = 0;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> accept_done_{false};
  /// Connections a handler is serving right now — the shed threshold.
  /// Tracked separately from sessions_.live() because a connection
  /// occupies a pool worker from accept, before its session exists.
  std::atomic<int> active_connections_{0};
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_SERVER_H_
