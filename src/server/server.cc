#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
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

/// Frame header + CRC overhead on the wire, for budget accounting.
constexpr size_t kFrameOverhead = 9;  // u32 length + u32 crc + u8 opcode

/// How long a fresh connection may take to show its first protocol
/// bytes and HELLO before the server hangs up — an unauthenticated
/// socket must not pin a pool worker forever.
constexpr std::chrono::seconds kHandshakeTimeout(10);

}  // namespace

/// keep_going context for Socket::ReadExact poll slices: abandon the
/// read once the server drains, and optionally on a handshake deadline.
struct ConnectionIo {
  TeleiosServer* server = nullptr;
  bool has_deadline = false;
  steady_clock::time_point deadline;

  static bool KeepGoing(void* arg) {
    auto* io = static_cast<ConnectionIo*>(arg);
    if (io->server->stopping_ || io->server->draining_) return false;
    if (io->has_deadline && steady_clock::now() > io->deadline) return false;
    return true;
  }
};

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
  char preamble[4] = {0};
  ConnectionIo io{this, true, steady_clock::now()};
  Status sniffed = conn->ReadExact(preamble, sizeof(preamble), 200,
                                   &ConnectionIo::KeepGoing, &io);
  Status refusal =
      Status::Unavailable("server at max_sessions=" +
                          std::to_string(config_.max_sessions) +
                          "; connection refused");
  Status st;
  if (sniffed.ok() && std::memcmp(preamble, kMagic, sizeof(kMagic)) == 0) {
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
  char preamble[4] = {0};
  ConnectionIo io{this, true, steady_clock::now() + kHandshakeTimeout};
  Status st = conn->ReadExact(preamble, sizeof(preamble), 250,
                              &ConnectionIo::KeepGoing, &io);
  if (!st.ok()) return;  // silent or dropped connection: nothing owed

  const bool binary = std::memcmp(preamble, kMagic, sizeof(kMagic)) == 0;
  std::shared_ptr<Session> session = sessions_.Open(
      conn->peer(), binary ? "binary" : "http",
      config_.session_budget_bytes);
  session->RegisterConnection(conn.get());
  if (binary) {
    ServeBinary(conn.get(), session);
  } else {
    ServeHttp(conn.get(), session, std::string(preamble, sizeof(preamble)));
  }
  session->ClearConnection();
  // A dropped socket cancels whatever the session was still running —
  // the morsel loop unwinds at its next poll even though the handler
  // thread has already moved on.
  session->connection_token()->Cancel();
  sessions_.Close(session);
}

Status TeleiosServer::ReadFrame(Connection* conn, Frame* frame) {
  char header[8];
  ConnectionIo io{this, false, {}};
  TELEIOS_RETURN_IF_ERROR(conn->ReadExact(header, sizeof(header), 250,
                                          &ConnectionIo::KeepGoing, &io));
  uint32_t crc = 0;
  TELEIOS_ASSIGN_OR_RETURN(
      uint32_t length,
      DecodeFrameLength(std::string_view(header, sizeof(header)), &crc));
  std::string body(length, '\0');
  // The body must follow promptly — a half-sent frame cannot hold the
  // connection open past the handshake timeout.
  ConnectionIo body_io{this, true, steady_clock::now() + kHandshakeTimeout};
  Status st = conn->ReadExact(body.data(), body.size(), 250,
                              &ConnectionIo::KeepGoing, &body_io);
  if (!st.ok()) {
    return st.code() == StatusCode::kCancelled
               ? st
               : Status::DataLoss("frame body truncated: " + st.message());
  }
  TELEIOS_ASSIGN_OR_RETURN(*frame, DecodeFrameBody(body, crc));
  obs::Count("teleios_server_frames_total");
  obs::Count("teleios_server_bytes_in_total", sizeof(header) + body.size());
  return Status::OK();
}

Status TeleiosServer::WriteFrame(Connection* conn,
                                 const std::shared_ptr<Session>& session,
                                 Opcode opcode, std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + kFrameOverhead);
  AppendFrame(&out, opcode, payload);
  Status st = conn->WriteAll(out, config_.write_timeout_millis);
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
  if (session != nullptr) session->AddBytesStreamed(out.size());
  return Status::OK();
}

void TeleiosServer::ServeBinary(Connection* conn,
                                const std::shared_ptr<Session>& session) {
  auto protocol_error = [&](const Status& st) {
    obs::Count("teleios_server_protocol_errors_total");
    Status write = WriteFrame(conn, session, Opcode::kError, EncodeError(st));
    (void)write;  // the connection is being dropped regardless
  };

  // --- HELLO ---------------------------------------------------------------
  Frame frame;
  Status st = ReadFrame(conn, &frame);
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
    st = ReadFrame(conn, &frame);
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
    io::ByteReader reader(frame.payload);
    switch (frame.opcode) {
      case Opcode::kQuery: {
        uint8_t lang_byte = 0;
        std::string statement;
        uint64_t deadline = 0;
        uint64_t request_id = 0;
        if (!reader.ReadBytes(&lang_byte, 1) ||
            !reader.ReadStr(&statement, kMaxFrameBytes) ||
            !reader.ReadU64(&deadline) || lang_byte < 1 || lang_byte > 3 ||
            // Optional v2 trailing field: the retry request id.
            (!reader.exhausted() &&
             (!reader.ReadU64(&request_id) || !reader.exhausted()))) {
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
        if (!reader.ReadBytes(&lang_byte, 1) ||
            !reader.ReadStr(&statement, kMaxFrameBytes) ||
            !reader.exhausted() || lang_byte < 1 || lang_byte > 3) {
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
        if (!reader.ReadU32(&stmt_id) || !reader.ReadU32(&nparams) ||
            nparams > 1024) {
          protocol_error(Status::DataLoss("malformed EXECUTE payload"));
          return;
        }
        std::vector<Value> params;
        params.reserve(nparams);
        bool bad = false;
        for (uint32_t i = 0; i < nparams; ++i) {
          Result<Value> v = ReadValue(&reader);
          if (!v.ok()) {
            bad = true;
            break;
          }
          params.push_back(std::move(v).value());
        }
        uint64_t deadline = 0;
        uint64_t request_id = 0;
        if (bad || !reader.ReadU64(&deadline) ||
            // Optional v2 trailing field: the retry request id.
            (!reader.exhausted() &&
             (!reader.ReadU64(&request_id) || !reader.exhausted()))) {
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
        if (!reader.ReadU64(&target_session) ||
            !reader.ReadU64(&cancel_key) || !reader.exhausted()) {
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
        if (!reader.ReadU32(&stmt_id) || !reader.exhausted()) {
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
  Status st =
      WriteFrame(conn, session, Opcode::kSchema, EncodeSchema(table));
  if (!st.ok()) return st;
  uint64_t chunks = 0;
  const size_t num_rows = table.num_rows();
  for (size_t begin = 0; begin < num_rows; begin += config_.chunk_rows) {
    size_t end = std::min(num_rows, begin + config_.chunk_rows);
    std::string payload = EncodeRowChunk(table, begin, end);
    // Backpressure: the serialized chunk is charged to the session
    // budget for as long as it sits in our hands / the socket buffer —
    // a slow reader throttles the stream instead of growing the heap.
    Result<governor::BudgetCharge> charge = governor::TryCharge(
        session->budget(), payload.size() + kFrameOverhead,
        "result stream window");
    if (!charge.ok()) {
      session->set_state("idle");
      return WriteFrame(conn, session, Opcode::kError,
                        EncodeError(charge.status()));
    }
    st = WriteFrame(conn, session, Opcode::kRows, payload);
    if (!st.ok()) return st;
    ++chunks;
  }
  st = WriteFrame(conn, session, Opcode::kDone,
                  EncodeDone(num_rows, chunks));
  session->set_state("idle");
  return st;
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

void TeleiosServer::ServeHttp(Connection* conn,
                              const std::shared_ptr<Session>& session,
                              const std::string& sniffed) {
  obs::Count("teleios_server_http_requests_total");
  session->set_state("executing");
  session->Touch(sessions_.NowMillis());
  auto respond = [&](int status, std::string_view content_type,
                     std::string_view body) {
    std::string out = BuildHttpResponse(status, content_type, body);
    Status st = conn->WriteAll(out, config_.write_timeout_millis);
    if (st.ok()) session->AddBytesStreamed(out.size());
  };

  // Read up to CRLFCRLF (the head), bounded by max_http_bytes.
  std::string data = sniffed;
  size_t head_end;
  while ((head_end = data.find("\r\n\r\n")) == std::string::npos) {
    if (data.size() > config_.max_http_bytes) {
      respond(413, "application/json",
              ErrorToJson(Status::InvalidArgument("request too large")));
      return;
    }
    char buf[4096];
    Result<size_t> r = conn->ReadSome(buf, sizeof(buf), 5000);
    if (!r.ok() || r.value() == 0) return;  // slowloris / dropped
    data.append(buf, r.value());
  }
  Result<HttpRequest> parsed = ParseHttpHead(data.substr(0, head_end + 4));
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
  request.body = data.substr(head_end + 4);
  if (request.body.size() < length.value()) {
    size_t missing = length.value() - request.body.size();
    std::string rest(missing, '\0');
    ConnectionIo io{this, true, steady_clock::now() + kHandshakeTimeout};
    Status st = conn->ReadExact(rest.data(), rest.size(), 250,
                                &ConnectionIo::KeepGoing, &io);
    if (!st.ok()) return;
    request.body += rest;
  } else {
    request.body.resize(length.value());
  }
  obs::Count("teleios_server_bytes_in_total",
             data.size() + request.body.size());

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
