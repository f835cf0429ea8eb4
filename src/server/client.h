#ifndef TELEIOS_SERVER_CLIENT_H_
#define TELEIOS_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "server/protocol.h"
#include "server/transport.h"
#include "storage/table.h"

namespace teleios::server {

struct ClientOptions {
  /// Sent in HELLO; must match the server's TELEIOS_AUTH_TOKEN.
  std::string auth_token;
  /// Default per-statement deadline the server arms when a QUERY carries
  /// none; 0 = no deadline.
  uint64_t default_deadline_millis = 0;
  /// Stable client identity sent in HELLO when nonzero: the key of the
  /// server's idempotent-retry dedup window. ResilientClient fills this
  /// in and keeps it fixed across reconnects.
  uint64_t client_id = 0;
};

/// Blocking client for the TELEIOS binary wire protocol (protocol.h):
/// the library behind teleios_cli, bench_server, and the server tests.
/// One Client is one connection/session; it is movable, not copyable,
/// and NOT thread-safe — concurrency means one Client per thread, which
/// is exactly the server-side session model anyway.
class Client {
 public:
  /// Connects (through the process transport — see transport.h), sends
  /// the magic preamble + HELLO, and consumes WELCOME. Errors surface
  /// the server's refusal (bad auth, version skew) or the socket
  /// failure.
  static Result<Client> Connect(const std::string& host, int port,
                                const ClientOptions& options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Session identity from WELCOME. The cancel key authorizes Cancel()
  /// for this session from any connection.
  uint64_t session_id() const { return session_id_; }
  uint64_t cancel_key() const { return cancel_key_; }

  /// Runs one statement and reassembles the streamed result. Engine
  /// errors come back as the error Status the server framed; the
  /// connection stays usable afterwards. A nonzero `request_id` tags
  /// the statement for the server's idempotent-retry window (requires a
  /// nonzero client_id in HELLO).
  Result<storage::Table> Query(Lang lang, const std::string& statement,
                               uint64_t deadline_millis = 0,
                               uint64_t request_id = 0);

  /// Split halves of Query() for pipelining: issue several SendQuery()s
  /// back to back, then drain the results in order with ReadResult().
  Status SendQuery(Lang lang, const std::string& statement,
                   uint64_t deadline_millis = 0, uint64_t request_id = 0);
  Result<storage::Table> ReadResult();

  /// Prepared statements: server-side (lang, text) replayed by Execute
  /// with positional `?` parameters.
  Result<uint32_t> Prepare(Lang lang, const std::string& statement);
  Result<storage::Table> Execute(uint32_t stmt_id,
                                 const std::vector<Value>& params,
                                 uint64_t deadline_millis = 0,
                                 uint64_t request_id = 0);
  Status CloseStmt(uint32_t stmt_id);

  /// Cancels `session_id`'s in-flight statement (usually another
  /// connection's — cancelling your own requires a second connection,
  /// since this one is blocked streaming). Requires that session's key.
  Status Cancel(uint64_t session_id, uint64_t cancel_key);

  /// The lease heartbeat: round-trips a PING and checks the echoed
  /// payload. A healthy idle connection answers within the server's
  /// write timeout.
  Status Ping();

  /// Polite close (GOODBYE); the destructor just drops the connection,
  /// which the server handles identically.
  Status Goodbye();

  /// Rows/chunks reported by the most recent DONE frame.
  uint64_t last_total_rows() const { return last_total_rows_; }
  uint64_t last_chunks() const { return last_chunks_; }

  // --- low-level access (tests: malformed-frame fuzzing) -------------------

  /// Writes raw bytes on the connection, bypassing framing.
  Status SendRaw(std::string_view bytes) { return conn_->WriteAll(bytes); }
  /// The next frame off the connection's reader.
  Result<Frame> ReadFrame() { return reader_.Next(); }
  /// Sends one well-formed frame.
  Status SendFrame(Opcode opcode, std::string_view payload);

  Connection& connection() { return *conn_; }

 private:
  Client() = default;

  /// Waits for kDone/kError after a control request (CANCEL/CLOSE_STMT).
  Status ReadAck();

  std::unique_ptr<Connection> conn_;
  /// Every read of the connection: one wakeup per reply that has fully
  /// arrived, however many frames it holds.
  FrameReader reader_;
  uint64_t session_id_ = 0;
  uint64_t cancel_key_ = 0;
  uint64_t default_deadline_millis_ = 0;
  uint64_t last_total_rows_ = 0;
  uint64_t last_chunks_ = 0;
  uint64_t ping_seq_ = 0;
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_CLIENT_H_
