#ifndef TELEIOS_SERVER_SESSION_H_
#define TELEIOS_SERVER_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/cancellation.h"
#include "governor/memory_budget.h"
#include "relational/virtual_tables.h"
#include "server/protocol.h"
#include "server/transport.h"
#include "storage/table.h"

namespace teleios::server {

/// One statement PREPAREd on a session, replayed by EXECUTE with bound
/// parameters.
struct PreparedStatement {
  Lang lang = Lang::kSql;
  std::string text;
};

/// Point-in-time reading of one session (`sys.sessions`).
struct SessionStats {
  uint64_t id = 0;
  std::string peer;
  std::string protocol;  // "binary" | "http"
  std::string state;     // handshake / idle / executing / streaming / draining
  uint64_t queries_run = 0;
  uint64_t bytes_streamed = 0;
  uint64_t prepared_statements = 0;
  int64_t open_unix_millis = 0;
  /// Lease bookkeeping: last frame/request seen (registry clock).
  int64_t last_activity_unix_millis = 0;
  /// Stable client identity from HELLO (0 for v1 / HTTP clients).
  uint64_t client_id = 0;
};

/// Per-connection server state: identity (id + cancel key), the
/// connection-lifetime cancellation token every statement chains to, a
/// per-session MemoryBudget child of the process root (statement
/// budgets chain under it through the facade's CurrentBudget
/// propagation), the prepared-statement table, and streaming counters.
///
/// Created by SessionRegistry::Open, destroyed by Close; the handler
/// thread owns the socket, but registers it here so a draining server
/// can force-close connections that outlive the drain window.
class Session {
 public:
  Session(uint64_t id, uint64_t cancel_key, std::string peer,
          std::string protocol, size_t budget_bytes);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  uint64_t cancel_key() const { return cancel_key_; }
  const std::string& peer() const { return peer_; }

  /// The connection-lifetime token: cancelled when the socket drops or
  /// the server force-drains, which reaches the running statement too
  /// (statement tokens link to it).
  CancellationToken* connection_token() { return &connection_token_; }

  /// The session's budget; the handler installs it thread-locally while
  /// serving, so per-query children chain process -> session -> query.
  governor::MemoryBudget* budget() { return &budget_; }

  /// Starts a statement: a fresh token chained to the connection token,
  /// with `deadline_millis` armed when nonzero. The token is retained so
  /// a CANCEL frame (from any connection holding the cancel key) can
  /// reach it; EndStatement drops it.
  std::shared_ptr<CancellationToken> BeginStatement(
      uint64_t deadline_millis);
  void EndStatement();

  /// Cancels the in-flight statement, if any; true when one was hit.
  bool CancelActiveStatement();

  /// Prepared-statement table.
  uint32_t AddPrepared(PreparedStatement stmt);
  Result<PreparedStatement> GetPrepared(uint32_t stmt_id) const;
  Status ClosePrepared(uint32_t stmt_id);

  /// Lifecycle / accounting, all thread-safe.
  void set_state(const std::string& state);
  std::string state() const;
  void AddQuery();
  void AddBytesStreamed(uint64_t n);
  uint64_t bytes_streamed() const;

  /// Lease bookkeeping: the handler touches the session on every frame
  /// read, HTTP request, and heartbeat; the reaper compares against the
  /// registry clock.
  void Touch(int64_t now_millis);
  int64_t last_activity_millis() const;

  /// Stable client identity from HELLO (idempotent-retry dedup key).
  void set_client_id(uint64_t id);
  uint64_t client_id() const;

  /// Lets the drain path and the lease reaper half-close this
  /// connection from another thread. The handler must ClearConnection()
  /// before the Connection dies.
  void RegisterConnection(Connection* conn);
  void ClearConnection();
  void ForceClose();

  SessionStats Stats() const;

 private:
  const uint64_t id_;
  const uint64_t cancel_key_;
  const std::string peer_;
  const std::string protocol_;
  const int64_t open_unix_millis_;
  CancellationToken connection_token_;
  governor::MemoryBudget budget_;

  mutable Mutex mu_;
  std::string state_ TELEIOS_GUARDED_BY(mu_) = "handshake";
  std::shared_ptr<CancellationToken> active_statement_
      TELEIOS_GUARDED_BY(mu_);
  std::map<uint32_t, PreparedStatement> prepared_ TELEIOS_GUARDED_BY(mu_);
  uint32_t next_stmt_id_ TELEIOS_GUARDED_BY(mu_) = 1;
  Connection* conn_ TELEIOS_GUARDED_BY(mu_) = nullptr;
  uint64_t queries_run_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t bytes_streamed_ TELEIOS_GUARDED_BY(mu_) = 0;
  int64_t last_activity_millis_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t client_id_ TELEIOS_GUARDED_BY(mu_) = 0;
};

/// The server's live-session ledger, doubling as the `sys.sessions`
/// virtual-table provider: the server plugs it into the observatory's
/// SystemTables so `SELECT * FROM sys.sessions` works from any
/// connection (including the one asking).
///
/// Open/Close post session.open / session.close events and keep the
/// teleios_server_sessions gauge and session counters current — the
/// acceptance invariant "killing a socket leaks nothing" is checked
/// against live() == 0 and the process budget returning to zero.
class SessionRegistry : public relational::VirtualTableProvider {
 public:
  /// Injectable wall clock (unix millis) so lease-expiry tests advance
  /// time instead of sleeping — the CircuitBreaker clock idiom.
  using Clock = std::function<int64_t()>;

  SessionRegistry();

  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  std::shared_ptr<Session> Open(const std::string& peer,
                                const std::string& protocol,
                                size_t budget_bytes);
  void Close(const std::shared_ptr<Session>& session);

  void SetClockForTest(Clock clock);
  /// Now, per the (possibly test-injected) registry clock.
  int64_t NowMillis() const;

  /// Lease enforcement: force-closes every session idle (or stuck in
  /// handshake) longer than `lease_millis`, posting a
  /// server.lease_expired event and counting
  /// teleios_server_lease_expired_total per reaped session. Sessions
  /// executing or streaming are spared — a slow statement is the
  /// write-timeout's problem, not the lease's. Returns the number
  /// reaped (their handlers unwind and Close() as usual).
  size_t ReapExpired(int64_t lease_millis);

  /// CANCEL frame entry point: cancels `session_id`'s active statement
  /// when `cancel_key` matches. NotFound for a dead session,
  /// InvalidArgument (and a counted metric) for a bad key.
  Status CancelStatement(uint64_t session_id, uint64_t cancel_key);

  /// Drain support: cancel every connection token (statements unwind at
  /// their next poll) and/or half-close every registered socket.
  void CancelAll();
  void ForceCloseAll();

  size_t live() const;
  uint64_t opened_total() const;
  std::vector<SessionStats> Snapshot() const;

  // --- VirtualTableProvider ("sys.sessions") -------------------------------
  bool Serves(const std::string& name) const override;
  std::vector<std::string> TableNames() const override;
  Result<storage::TablePtr> Materialize(const std::string& name) override;

 private:
  mutable Mutex mu_;
  uint64_t next_id_ TELEIOS_GUARDED_BY(mu_) = 1;
  uint64_t opened_ TELEIOS_GUARDED_BY(mu_) = 0;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_
      TELEIOS_GUARDED_BY(mu_);
  Clock clock_ TELEIOS_GUARDED_BY(mu_);
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_SESSION_H_
