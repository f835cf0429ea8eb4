#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "server/http.h"

namespace teleios::server {

namespace {

using std::chrono::steady_clock;

/// Env int with a floor; unset/unparsable keeps the default.
int EnvInt(const char* name, int def, int min_value) {
  return std::max(min_value, static_cast<int>(EnvNumber(
                                 name, static_cast<uint64_t>(def))));
}

/// Same grammar as TELEIOS_MEMORY_BUDGET; unset, 0 or unparsable =
/// unlimited.
size_t EnvBytes(const char* name) {
  uint64_t v = EnvNumber(name, 0);
  return v == 0 ? governor::MemoryBudget::kUnlimited : static_cast<size_t>(v);
}

/// How long a fresh connection may take to show its first protocol
/// bytes, and a started frame or HTTP body to arrive, before the server
/// hangs up — an unauthenticated socket must not pin a pool worker
/// forever.
constexpr int64_t kHandshakeMillis = 10'000;

/// keep_going of a connection's reads: abandon a parked read once the
/// server stops or drains.
bool KeepServing(void* server) {
  auto* srv = static_cast<TeleiosServer*>(server);
  return srv->running() && !srv->draining();
}

}  // namespace

ServerConfig ServerConfig::FromEnv() {
  ServerConfig config;
  config.port = EnvInt("TELEIOS_SERVER_PORT", 0, 0);
  config.max_sessions = EnvInt("TELEIOS_SERVER_MAX_SESSIONS", 64, 1);
  const char* token = std::getenv("TELEIOS_AUTH_TOKEN");
  if (token != nullptr) config.auth_token = token;
  config.chunk_rows = static_cast<size_t>(
      EnvInt("TELEIOS_SERVER_CHUNK_ROWS", 1024, 1));
  config.session_budget_bytes = EnvBytes("TELEIOS_SESSION_MEMORY_BUDGET");
  config.backlog = EnvInt("TELEIOS_SERVER_BACKLOG", 128, 1);
  config.lease_millis = EnvInt("TELEIOS_SERVER_LEASE_MS", 60'000, 0);
  config.write_timeout_millis =
      EnvInt("TELEIOS_SERVER_WRITE_TIMEOUT_MS", 30'000, 0);
  config.dedup_window = EnvInt("TELEIOS_SERVER_DEDUP_WINDOW", 128, 1);
  return config;
}

TeleiosServer::TeleiosServer(core::VirtualEarthObservatory* observatory,
                             ServerConfig config)
    : observatory_(observatory),
      config_(std::move(config)),
      dedup_(/*max_clients=*/256,
             static_cast<size_t>(config_.dedup_window)) {}

TeleiosServer::~TeleiosServer() {
  Status st = Shutdown();
  (void)st;  // a destructor has no one to report a checkpoint error to
}

Status TeleiosServer::Start() {
  if (started_) return Status::AlreadyExists("server already started");
  TELEIOS_ASSIGN_OR_RETURN(
      listener_, GetTransport()->Listen(config_.port, config_.backlog));
  port_ = listener_->bound_port();
  observatory_->system_tables().set_extra(&sessions_);
  // One worker per serveable connection plus the accept loop and (when
  // leasing) the reaper; never the global morsel pool — a handler
  // parked in recv(2) must not steal a core from a running scan. The
  // pool spawns `threads - 1` workers (the submitter participates in
  // morsel pools, but nobody waits on this one), hence the extra +1.
  const int reaper_workers = config_.lease_millis > 0 ? 1 : 0;
  pool_ = std::make_unique<exec::ThreadPool>(
      config_.max_sessions + 2 + reaper_workers, "server");
  started_ = true;
  pool_->Submit([this] { AcceptLoop(); });
  if (config_.lease_millis > 0) {
    pool_->Submit([this] { ReapLoop(); });
  }
  obs::PostEvent("server.start", {{"port", std::to_string(port_)}});
  return Status::OK();
}

void TeleiosServer::AcceptLoop() {
  while (!stopping_) {
    Result<std::unique_ptr<Connection>> accepted =
        listener_->AcceptWithTimeout(100);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kUnavailable) {
        // A poll timeout — or an injected/transient accept failure; a
        // real arrival that got refused is worth counting.
        if (accepted.status().message() != "accept timed out") {
          obs::Count("teleios_server_accept_refused_total");
        }
        continue;
      }
      break;  // listener shut down (or hard error): stop accepting
    }
    if (active_connections_.load() >= config_.max_sessions) {
      ShedConnection(std::move(accepted).value());
      continue;
    }
    ++active_connections_;
    auto conn = std::make_shared<std::unique_ptr<Connection>>(
        std::move(accepted).value());
    pool_->Submit([this, conn]() mutable {
      HandleConnection(std::move(*conn));
      --active_connections_;
    });
  }
  accept_done_ = true;
}

void TeleiosServer::ReapLoop() {
  // Sleep in short ticks (so shutdown never waits on this thread) but
  // scan only every ~lease/10 — expiry is noticed within ~10% of the
  // configured idle bound without hammering the registry.
  const auto tick = std::chrono::milliseconds(10);
  const int64_t ticks_per_scan =
      std::max<int64_t>(1, config_.lease_millis / 10 / tick.count());
  int64_t ticks = 0;
  while (!stopping_) {
    std::this_thread::sleep_for(tick);
    if (stopping_) break;
    if (++ticks % ticks_per_scan != 0) continue;
    sessions_.ReapExpired(config_.lease_millis);
  }
}

void TeleiosServer::ShedConnection(std::unique_ptr<Connection> conn) {
  obs::Count("teleios_server_sheds_total");
  obs::PostEvent("server.shed",
                 {{"peer", conn->peer()},
                  {"live", std::to_string(active_connections_.load())}});
  // Sniff briefly (one poll slice) so the refusal speaks the client's
  // protocol; a silent client just gets the close.
  FrameReader reader(conn.get(), /*poll_millis=*/200, &KeepServing, this);
  Status sniffed = reader.Fill(sizeof(kMagic), /*timeout_millis=*/0);
  Status refusal =
      Status::Unavailable("server at max_sessions=" +
                          std::to_string(config_.max_sessions) +
                          "; connection refused");
  Status st;
  if (sniffed.ok() && reader.buffered().substr(0, sizeof(kMagic)) ==
                          std::string_view(kMagic, sizeof(kMagic))) {
    std::string out;
    AppendFrame(&out, Opcode::kError, EncodeError(refusal));
    st = conn->WriteAll(out, config_.write_timeout_millis);
  } else {
    st = conn->WriteAll(
        BuildHttpResponse(503, "application/json", ErrorToJson(refusal)),
        config_.write_timeout_millis);
  }
  (void)st;  // the peer is being dropped either way
}

void TeleiosServer::HandleConnection(std::unique_ptr<Connection> conn) {
  // Every read of this connection goes through one reader, so whatever
  // arrived with the preamble (HELLO, a whole HTTP request) stays
  // buffered for the protocol that reads it.
  FrameReader reader(conn.get(), /*poll_millis=*/250, &KeepServing, this,
                     kHandshakeMillis);
  Status st = reader.Fill(sizeof(kMagic), kHandshakeMillis);
  if (!st.ok()) return;  // silent or dropped connection: nothing owed

  const bool binary = reader.buffered().substr(0, sizeof(kMagic)) ==
                      std::string_view(kMagic, sizeof(kMagic));
  std::shared_ptr<Session> session = sessions_.Open(
      conn->peer(), binary ? "binary" : "http",
      config_.session_budget_bytes);
  session->RegisterConnection(conn.get());
  if (binary) {
    reader.Consume(sizeof(kMagic));
    ServeBinary(conn.get(), &reader, session);
  } else {
    ServeHttp(conn.get(), &reader, session);
  }
  session->ClearConnection();
  // A dropped socket cancels whatever the session was still running —
  // the morsel loop unwinds at its next poll even though the handler
  // thread has already moved on.
  session->connection_token()->Cancel();
  sessions_.Close(session);
}

Status TeleiosServer::Send(Connection* conn,
                           const std::shared_ptr<Session>& session,
                           std::string_view frames, Opcode opcode) {
  Status st = conn->WriteAll(frames, config_.write_timeout_millis);
  if (!st.ok()) {
    if (st.code() == StatusCode::kDeadlineExceeded) {
      // The client stopped reading long enough to stall this write:
      // kill the connection so its budget, registry entry, and pool
      // worker come back.
      obs::Count("teleios_server_write_timeouts_total");
      obs::PostEvent("server.write_timeout",
                     {{"session", session != nullptr
                                      ? std::to_string(session->id())
                                      : std::string("0")},
                      {"opcode", OpcodeName(opcode)}});
      conn->ShutdownBoth();
    }
    return st;
  }
  if (session != nullptr) session->AddBytesStreamed(frames.size());
  return Status::OK();
}

Status TeleiosServer::WriteFrame(Connection* conn,
                                 const std::shared_ptr<Session>& session,
                                 Opcode opcode, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + 1 + payload.size());
  AppendFrame(&out, opcode, payload);
  return Send(conn, session, out, opcode);
}

void TeleiosServer::ServeBinary(Connection* conn, FrameReader* reader,
                                const std::shared_ptr<Session>& session) {
  auto protocol_error = [&](const Status& st) {
    obs::Count("teleios_server_protocol_errors_total");
    Status write = WriteFrame(conn, session, Opcode::kError, EncodeError(st));
    (void)write;  // the connection is being dropped regardless
  };
  // One frame off the reader: kUnavailable on a clean close between
  // frames, kCancelled once draining (or a body that never came),
  // kDataLoss on a malformed or torn frame.
  Frame frame;
  auto read_frame = [&]() -> Status {
    TELEIOS_ASSIGN_OR_RETURN(frame, reader->Next());
    obs::Count("teleios_server_frames_total");
    obs::Count("teleios_server_bytes_in_total",
               kFrameHeaderBytes + 1 + frame.payload.size());
    return Status::OK();
  };

  // --- HELLO ---------------------------------------------------------------
  Status st = read_frame();
  if (!st.ok()) {
    if (st.code() == StatusCode::kDataLoss) protocol_error(st);
    return;
  }
  if (frame.opcode != Opcode::kHello) {
    protocol_error(Status::InvalidArgument(
        "first frame must be HELLO, got " + std::string(OpcodeName(frame.opcode))));
    return;
  }
  io::ByteReader hello(frame.payload);
  uint32_t version = 0;
  std::string auth_token;
  uint64_t default_deadline = 0;
  uint64_t client_id = 0;
  if (!hello.ReadU32(&version) || !hello.ReadStr(&auth_token) ||
      !hello.ReadU64(&default_deadline)) {
    protocol_error(Status::DataLoss("malformed HELLO payload"));
    return;
  }
  // Optional v2 trailing field: the client's stable identity for the
  // idempotent-retry window. A v1 HELLO simply ends here.
  if (!hello.exhausted() &&
      (!hello.ReadU64(&client_id) || !hello.exhausted())) {
    protocol_error(Status::DataLoss("malformed HELLO payload"));
    return;
  }
  if (version == 0 || version > kProtocolVersion) {
    protocol_error(Status::InvalidArgument(
        "client protocol version " + std::to_string(version) +
        " not supported (server speaks " +
        std::to_string(kProtocolVersion) + ")"));
    return;
  }
  if (!config_.auth_token.empty() && auth_token != config_.auth_token) {
    protocol_error(Status::InvalidArgument("authentication failed"));
    return;
  }
  session->set_client_id(client_id);
  st = WriteFrame(conn, session, Opcode::kWelcome,
                  EncodeWelcome(kProtocolVersion, session->id(),
                                session->cancel_key()));
  if (!st.ok()) return;
  session->set_state("idle");
  session->Touch(sessions_.NowMillis());

  // --- statement loop ------------------------------------------------------
  for (;;) {
    st = read_frame();
    if (!st.ok()) {
      // kUnavailable: clean close between frames. kCancelled: draining.
      if (st.code() == StatusCode::kDataLoss) protocol_error(st);
      if (st.code() == StatusCode::kCancelled && draining_) {
        Status bye = WriteFrame(
            conn, session, Opcode::kError,
            EncodeError(Status::Unavailable("server shutting down")));
        (void)bye;
      }
      return;
    }
    // Every frame renews the lease — including PING, whose whole job
    // is to renew it.
    session->Touch(sessions_.NowMillis());
    io::ByteReader payload(frame.payload);
    switch (frame.opcode) {
      case Opcode::kQuery: {
        uint8_t lang_byte = 0;
        std::string statement;
        uint64_t deadline = 0;
        uint64_t request_id = 0;
        if (!payload.ReadBytes(&lang_byte, 1) ||
            !payload.ReadStr(&statement, kMaxFrameBytes) ||
            !payload.ReadU64(&deadline) || lang_byte < 1 || lang_byte > 3 ||
            // Optional v2 trailing field: the retry request id.
            (!payload.exhausted() &&
             (!payload.ReadU64(&request_id) || !payload.exhausted()))) {
          protocol_error(Status::DataLoss("malformed QUERY payload"));
          return;
        }
        st = RunAndStream(conn, session, static_cast<Lang>(lang_byte),
                          statement,
                          deadline > 0 ? deadline : default_deadline,
                          request_id);
        if (!st.ok()) return;
        break;
      }
      case Opcode::kPrepare: {
        uint8_t lang_byte = 0;
        std::string statement;
        if (!payload.ReadBytes(&lang_byte, 1) ||
            !payload.ReadStr(&statement, kMaxFrameBytes) ||
            !payload.exhausted() || lang_byte < 1 || lang_byte > 3) {
          protocol_error(Status::DataLoss("malformed PREPARE payload"));
          return;
        }
        uint32_t stmt_id = session->AddPrepared(
            {static_cast<Lang>(lang_byte), std::move(statement)});
        st = WriteFrame(conn, session, Opcode::kStmtReady,
                        EncodeStmtReady(stmt_id));
        if (!st.ok()) return;
        break;
      }
      case Opcode::kExecute: {
        uint32_t stmt_id = 0;
        uint32_t nparams = 0;
        if (!payload.ReadU32(&stmt_id) || !payload.ReadU32(&nparams) ||
            nparams > 1024) {
          protocol_error(Status::DataLoss("malformed EXECUTE payload"));
          return;
        }
        std::vector<Value> params;
        params.reserve(nparams);
        bool bad = false;
        for (uint32_t i = 0; i < nparams; ++i) {
          Result<Value> v = ReadValue(&payload);
          if (!v.ok()) {
            bad = true;
            break;
          }
          params.push_back(std::move(v).value());
        }
        uint64_t deadline = 0;
        uint64_t request_id = 0;
        if (bad || !payload.ReadU64(&deadline) ||
            // Optional v2 trailing field: the retry request id.
            (!payload.exhausted() &&
             (!payload.ReadU64(&request_id) || !payload.exhausted()))) {
          protocol_error(Status::DataLoss("malformed EXECUTE payload"));
          return;
        }
        Result<PreparedStatement> stmt = session->GetPrepared(stmt_id);
        if (!stmt.ok()) {
          st = WriteFrame(conn, session, Opcode::kError,
                          EncodeError(stmt.status()));
          if (!st.ok()) return;
          break;
        }
        Result<std::string> bound =
            BindParameters(stmt.value().text, params);
        if (!bound.ok()) {
          st = WriteFrame(conn, session, Opcode::kError,
                          EncodeError(bound.status()));
          if (!st.ok()) return;
          break;
        }
        st = RunAndStream(conn, session, stmt.value().lang, bound.value(),
                          deadline > 0 ? deadline : default_deadline,
                          request_id);
        if (!st.ok()) return;
        break;
      }
      case Opcode::kCancel: {
        uint64_t target_session = 0;
        uint64_t cancel_key = 0;
        if (!payload.ReadU64(&target_session) ||
            !payload.ReadU64(&cancel_key) || !payload.exhausted()) {
          protocol_error(Status::DataLoss("malformed CANCEL payload"));
          return;
        }
        Status cancelled =
            sessions_.CancelStatement(target_session, cancel_key);
        st = cancelled.ok()
                 ? WriteFrame(conn, session, Opcode::kDone, EncodeDone(0, 0))
                 : WriteFrame(conn, session, Opcode::kError,
                              EncodeError(cancelled));
        if (!st.ok()) return;
        break;
      }
      case Opcode::kCloseStmt: {
        uint32_t stmt_id = 0;
        if (!payload.ReadU32(&stmt_id) || !payload.exhausted()) {
          protocol_error(Status::DataLoss("malformed CLOSE_STMT payload"));
          return;
        }
        Status closed = session->ClosePrepared(stmt_id);
        st = closed.ok()
                 ? WriteFrame(conn, session, Opcode::kDone, EncodeDone(0, 0))
                 : WriteFrame(conn, session, Opcode::kError,
                              EncodeError(closed));
        if (!st.ok()) return;
        break;
      }
      case Opcode::kPing: {
        // The lease heartbeat: echo the payload back so clients can
        // measure round trips. The Touch above already renewed the
        // lease.
        obs::Count("teleios_server_pings_total");
        st = WriteFrame(conn, session, Opcode::kPong, frame.payload);
        if (!st.ok()) return;
        break;
      }
      case Opcode::kGoodbye:
        return;
      default:
        protocol_error(Status::InvalidArgument(
            "unexpected opcode " +
            std::to_string(static_cast<int>(frame.opcode))));
        return;
    }
  }
}

Result<storage::Table> TeleiosServer::RunStatement(
    const std::shared_ptr<Session>& session, Lang lang,
    const std::string& statement, uint64_t deadline_millis) {
  session->AddQuery();
  obs::Count(obs::WithLabel("teleios_server_queries_total", "lang",
                            LangName(lang)));
  std::shared_ptr<CancellationToken> token =
      session->BeginStatement(deadline_millis);
  // Install the session budget thread-locally: the facade's per-query
  // budget becomes its child, so the chain reads process -> session ->
  // query in sys.budgets.
  governor::ScopedBudget scope(session->budget());
  Result<storage::Table> result = Status::Internal("unreachable");
  switch (lang) {
    case Lang::kSql:
      result = observatory_->Sql(statement, token.get());
      break;
    case Lang::kSciQl:
      result = observatory_->SciQl(statement, token.get());
      break;
    case Lang::kStSparql:
      result = observatory_->StSparql(statement, token.get());
      break;
  }
  session->EndStatement();
  return result;
}

Status TeleiosServer::StreamTable(Connection* conn,
                                  const std::shared_ptr<Session>& session,
                                  const storage::Table& table) {
  session->set_state("streaming");
  // One write per chunk: SCHEMA goes out with the first chunk and DONE
  // with the last, so a reply of at most one chunk is one write. `out`
  // holds the frames of one write, never more than one chunk.
  const size_t num_rows = table.num_rows();
  const uint64_t chunks =
      (num_rows + config_.chunk_rows - 1) / config_.chunk_rows;
  std::string out;
  AppendFrame(&out, Opcode::kSchema, EncodeSchema(table));
  size_t begin = 0;
  for (;;) {
    const bool has_chunk = begin < num_rows;
    if (has_chunk) {
      const size_t end = std::min(num_rows, begin + config_.chunk_rows);
      AppendRowsFrame(&out, table, begin, end);
      begin = end;
    }
    const bool last = begin == num_rows;
    if (last) AppendFrame(&out, Opcode::kDone, EncodeDone(num_rows, chunks));
    // Backpressure: the write carrying a chunk is charged to the session
    // budget for as long as it sits in our hands / the socket buffer — a
    // slow reader throttles the stream instead of growing the heap. A
    // refusal discards this write's frames; its ERROR follows what was
    // already sent.
    governor::BudgetCharge charge;
    if (has_chunk) {
      Result<governor::BudgetCharge> charged = governor::TryCharge(
          session->budget(), out.size(), "result stream window");
      if (!charged.ok()) {
        session->set_state("idle");
        return WriteFrame(conn, session, Opcode::kError,
                          EncodeError(charged.status()));
      }
      charge = std::move(charged).value();
    }
    Status st =
        Send(conn, session, out, has_chunk ? Opcode::kRows : Opcode::kDone);
    if (last) session->set_state("idle");
    if (!st.ok() || last) return st;
    out.clear();
  }
}

Status TeleiosServer::RunAndStream(Connection* conn,
                                   const std::shared_ptr<Session>& session,
                                   Lang lang, const std::string& statement,
                                   uint64_t deadline_millis,
                                   uint64_t request_id) {
  const uint64_t client_id = session->client_id();
  const bool dedup = request_id != 0 && client_id != 0;
  if (dedup) {
    DedupRegistry::Claim claim = dedup_.Begin(client_id, request_id);
    if (claim.kind == DedupRegistry::Claim::kDone) {
      // A retry of a statement that already ran to a definitive outcome:
      // replay the recording, never re-execute.
      if (!claim.status.ok()) {
        return WriteFrame(conn, session, Opcode::kError,
                          EncodeError(claim.status));
      }
      if (claim.result == nullptr) {
        return WriteFrame(
            conn, session, Opcode::kError,
            EncodeError(Status::Internal("dedup window lost its result")));
      }
      return StreamTable(conn, session, *claim.result);
    }
    if (claim.kind == DedupRegistry::Claim::kInFlight) {
      // The retry raced the original (still executing on its dying
      // connection). Tell the client to back off; the connection itself
      // is healthy.
      return WriteFrame(conn, session, Opcode::kError,
                        EncodeError(claim.status));
    }
  }
  session->set_state("executing");
  Result<storage::Table> result =
      RunStatement(session, lang, statement, deadline_millis);
  if (dedup) {
    // Record the outcome BEFORE streaming: the handler is synchronous,
    // so by the time a mid-stream disconnect is noticed the statement
    // has already completed here — the retry on a fresh connection
    // replays it instead of applying the mutation twice.
    //
    // Cancellation / deadline are not definitive: the statement was
    // aborted before committing, so the retry should re-execute rather
    // than replay an error that no longer describes anything. Nor is
    // kUnavailable: on every statement path it comes only from admission
    // shedding (queue full or wait timed out), before the statement ran.
    StatusCode code = result.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kUnavailable) {
      dedup_.Abandon(client_id, request_id);
    } else if (result.ok()) {
      dedup_.Complete(client_id, request_id, Status::OK(),
                      std::make_shared<const storage::Table>(result.value()));
    } else {
      dedup_.Complete(client_id, request_id, result.status(), nullptr);
    }
  }
  if (!result.ok()) {
    session->set_state("idle");
    // An engine error is the statement's problem, not the connection's.
    return WriteFrame(conn, session, Opcode::kError,
                      EncodeError(result.status()));
  }
  return StreamTable(conn, session, result.value());
}

void TeleiosServer::ServeHttp(Connection* conn, FrameReader* reader,
                              const std::shared_ptr<Session>& session) {
  obs::Count("teleios_server_http_requests_total");
  session->set_state("executing");
  session->Touch(sessions_.NowMillis());
  auto respond = [&](int status, std::string_view content_type,
                     std::string_view body) {
    std::string out = BuildHttpResponse(status, content_type, body);
    Status st = conn->WriteAll(out, config_.write_timeout_millis);
    if (st.ok()) session->AddBytesStreamed(out.size());
  };

  // Read up to CRLFCRLF (the head), bounded by max_http_bytes; each read
  // may wait 5 s (the slowloris bound). The reader already holds the
  // sniffed preamble and whatever arrived with it. Each search resumes
  // where the last one could not yet have matched.
  size_t head_end;
  size_t searched = 0;
  while ((head_end = reader->buffered().find("\r\n\r\n", searched)) ==
         std::string_view::npos) {
    const size_t buffered = reader->buffered().size();
    if (buffered > config_.max_http_bytes) {
      respond(413, "application/json",
              ErrorToJson(Status::InvalidArgument("request too large")));
      return;
    }
    searched = buffered < 3 ? 0 : buffered - 3;
    Status st = reader->Fill(buffered + 1, /*timeout_millis=*/5000);
    if (!st.ok()) return;  // slowloris / dropped
  }
  const size_t body_begin = head_end + 4;
  Result<HttpRequest> parsed =
      ParseHttpHead(std::string(reader->buffered().substr(0, body_begin)));
  if (!parsed.ok()) {
    respond(400, "application/json", ErrorToJson(parsed.status()));
    return;
  }
  HttpRequest request = std::move(parsed).value();
  Result<size_t> length =
      DeclaredContentLength(request, config_.max_http_bytes);
  if (!length.ok()) {
    respond(413, "application/json", ErrorToJson(length.status()));
    return;
  }
  // The body follows within the handshake timeout.
  Status body = reader->Fill(body_begin + length.value(), kHandshakeMillis);
  if (!body.ok()) return;
  request.body =
      std::string(reader->buffered().substr(body_begin, length.value()));
  reader->Consume(body_begin + length.value());
  obs::Count("teleios_server_bytes_in_total", body_begin + length.value());

  // --- routes --------------------------------------------------------------
  if (request.method == "GET" && request.path == "/healthz") {
    respond(200, "text/plain", draining_ ? "draining\n" : "ok\n");
    return;
  }
  if (request.method == "GET" && request.path == "/metrics") {
    respond(200, "text/plain; version=0.0.4", observatory_->MetricsText());
    return;
  }
  if (request.method == "GET" && request.path == "/sessions") {
    Result<storage::TablePtr> table = sessions_.Materialize("sys.sessions");
    if (!table.ok()) {
      respond(500, "application/json", ErrorToJson(table.status()));
    } else {
      respond(200, "application/json", TableToJson(*table.value()));
    }
    return;
  }
  if (request.path == "/query") {
    if (request.method != "POST") {
      respond(405, "application/json",
              ErrorToJson(Status::InvalidArgument(
                  "use POST /query with the statement as the body")));
      return;
    }
    if (!config_.auth_token.empty()) {
      auto it = request.headers.find("authorization");
      if (it == request.headers.end() ||
          it->second != "Bearer " + config_.auth_token) {
        respond(401, "application/json",
                ErrorToJson(
                    Status::InvalidArgument("authentication failed")));
        return;
      }
    }
    std::string lang_name = "sql";
    auto lang_it = request.query.find("lang");
    if (lang_it != request.query.end()) lang_name = lang_it->second;
    Result<Lang> lang = ParseLang(lang_name);
    if (!lang.ok()) {
      respond(400, "application/json", ErrorToJson(lang.status()));
      return;
    }
    uint64_t deadline = 0;
    auto deadline_it = request.query.find("timeout_millis");
    if (deadline_it != request.query.end()) {
      Result<int64_t> millis = ParseInt64(deadline_it->second);
      if (!millis.ok() || millis.value() < 0) {
        respond(400, "application/json",
                ErrorToJson(
                    Status::InvalidArgument("bad timeout_millis value")));
        return;
      }
      deadline = static_cast<uint64_t>(millis.value());
    }
    if (request.body.empty()) {
      respond(400, "application/json",
              ErrorToJson(Status::InvalidArgument(
                  "empty statement: POST the query text as the body")));
      return;
    }
    Result<storage::Table> result =
        RunStatement(session, lang.value(), request.body, deadline);
    session->set_state("idle");
    if (!result.ok()) {
      respond(HttpStatusForError(result.status()), "application/json",
              ErrorToJson(result.status()));
    } else {
      respond(200, "application/json", TableToJson(result.value()));
    }
    return;
  }
  respond(404, "application/json",
          ErrorToJson(Status::NotFound("no route for " + request.method +
                                       " " + request.path)));
}

Status TeleiosServer::Shutdown(std::chrono::milliseconds drain_timeout) {
  if (!started_) return Status::OK();
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return Status::OK();  // second (sequential) call: already shut down
  }
  draining_ = true;
  obs::PostEvent("server.drain",
                 {{"live", std::to_string(sessions_.live())}});
  // Wake the accept loop out of its poll and refuse new connections.
  if (listener_ != nullptr) listener_->ShutdownBoth();
  // Let in-flight statements finish streaming: handlers notice
  // draining_ between read polls (≤250ms) and unwind after their
  // current statement completes.
  auto deadline = steady_clock::now() + drain_timeout;
  while (steady_clock::now() < deadline &&
         (active_connections_.load() > 0 || !accept_done_.load())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (active_connections_.load() > 0) {
    // Stragglers: cancel their statements and half-close their sockets;
    // the handlers' next read/write fails and they unwind.
    sessions_.CancelAll();
    sessions_.ForceCloseAll();
  }
  pool_.reset();  // joins the accept loop and every handler
  if (listener_ != nullptr) listener_->Close();
  observatory_->system_tables().set_extra(nullptr);
  obs::PostEvent("server.stop",
                 {{"sessions_served",
                   std::to_string(sessions_.opened_total())}});
  // The SIGTERM contract: a durable observatory leaves a fresh
  // checkpoint behind so restart recovery has no WAL tail to replay.
  if (observatory_->durable()) {
    TELEIOS_RETURN_IF_ERROR(observatory_->Checkpoint());
  }
  return Status::OK();
}

}  // namespace teleios::server
