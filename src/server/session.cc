#include "server/session.h"

#include <chrono>
#include <utility>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace teleios::server {

namespace {

using storage::ColumnType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

/// splitmix64 — cheap, well-mixed cancel keys (not a security boundary;
/// the key just prevents one tenant's fat-fingered CANCEL from killing
/// another's statement).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Session::Session(uint64_t id, uint64_t cancel_key, std::string peer,
                 std::string protocol, size_t budget_bytes)
    : id_(id),
      cancel_key_(cancel_key),
      peer_(std::move(peer)),
      protocol_(std::move(protocol)),
      open_unix_millis_(obs::UnixMillisNow()),
      budget_("session-" + std::to_string(id), budget_bytes,
              &governor::ProcessBudget()) {}

std::shared_ptr<CancellationToken> Session::BeginStatement(
    uint64_t deadline_millis) {
  auto token = std::make_shared<CancellationToken>();
  token->LinkParent(&connection_token_);
  if (deadline_millis > 0) {
    token->CancelAfter(std::chrono::milliseconds(deadline_millis));
  }
  // The state and the token change together: once the session reads
  // "executing", a CANCEL finds the statement.
  MutexLock lock(mu_);
  active_statement_ = token;
  state_ = "executing";
  return token;
}

void Session::EndStatement() {
  MutexLock lock(mu_);
  active_statement_.reset();
}

bool Session::CancelActiveStatement() {
  std::shared_ptr<CancellationToken> token;
  {
    MutexLock lock(mu_);
    token = active_statement_;
  }
  if (token == nullptr) return false;
  token->Cancel();
  return true;
}

uint32_t Session::AddPrepared(PreparedStatement stmt) {
  MutexLock lock(mu_);
  uint32_t id = next_stmt_id_++;
  prepared_.emplace(id, std::move(stmt));
  return id;
}

Result<PreparedStatement> Session::GetPrepared(uint32_t stmt_id) const {
  MutexLock lock(mu_);
  auto it = prepared_.find(stmt_id);
  if (it == prepared_.end()) {
    return Status::NotFound("no prepared statement with id " +
                            std::to_string(stmt_id));
  }
  return it->second;
}

Status Session::ClosePrepared(uint32_t stmt_id) {
  MutexLock lock(mu_);
  if (prepared_.erase(stmt_id) == 0) {
    return Status::NotFound("no prepared statement with id " +
                            std::to_string(stmt_id));
  }
  return Status::OK();
}

void Session::set_state(const std::string& state) {
  MutexLock lock(mu_);
  state_ = state;
}

std::string Session::state() const {
  MutexLock lock(mu_);
  return state_;
}

void Session::Touch(int64_t now_millis) {
  MutexLock lock(mu_);
  last_activity_millis_ = now_millis;
}

int64_t Session::last_activity_millis() const {
  MutexLock lock(mu_);
  return last_activity_millis_;
}

void Session::set_client_id(uint64_t id) {
  MutexLock lock(mu_);
  client_id_ = id;
}

uint64_t Session::client_id() const {
  MutexLock lock(mu_);
  return client_id_;
}

void Session::AddQuery() {
  MutexLock lock(mu_);
  ++queries_run_;
}

void Session::AddBytesStreamed(uint64_t n) {
  obs::Count("teleios_server_bytes_out_total", n);
  MutexLock lock(mu_);
  bytes_streamed_ += n;
}

uint64_t Session::bytes_streamed() const {
  MutexLock lock(mu_);
  return bytes_streamed_;
}

void Session::RegisterConnection(Connection* conn) {
  MutexLock lock(mu_);
  conn_ = conn;
}

void Session::ClearConnection() {
  MutexLock lock(mu_);
  conn_ = nullptr;
}

void Session::ForceClose() {
  connection_token_.Cancel();
  MutexLock lock(mu_);
  if (conn_ != nullptr) conn_->ShutdownBoth();
}

SessionStats Session::Stats() const {
  MutexLock lock(mu_);
  SessionStats stats;
  stats.id = id_;
  stats.peer = peer_;
  stats.protocol = protocol_;
  stats.state = state_;
  stats.queries_run = queries_run_;
  stats.bytes_streamed = bytes_streamed_;
  stats.prepared_statements = prepared_.size();
  stats.open_unix_millis = open_unix_millis_;
  stats.last_activity_unix_millis = last_activity_millis_;
  stats.client_id = client_id_;
  return stats;
}

SessionRegistry::SessionRegistry() : clock_(&obs::UnixMillisNow) {}

void SessionRegistry::SetClockForTest(Clock clock) {
  MutexLock lock(mu_);
  clock_ = clock != nullptr ? std::move(clock) : &obs::UnixMillisNow;
}

int64_t SessionRegistry::NowMillis() const {
  Clock clock;
  {
    MutexLock lock(mu_);
    clock = clock_;
  }
  return clock();
}

size_t SessionRegistry::ReapExpired(int64_t lease_millis) {
  if (lease_millis <= 0) return 0;
  const int64_t now = NowMillis();
  std::vector<std::shared_ptr<Session>> expired;
  {
    MutexLock lock(mu_);
    for (const auto& [id, session] : sessions_) {
      std::string state = session->state();
      // Only sessions sitting between statements (or never past the
      // handshake) hold a lease; a statement mid-execution or
      // mid-stream is making progress and is covered by the per-write
      // timeout instead.
      if (state != "idle" && state != "handshake") continue;
      if (now - session->last_activity_millis() > lease_millis) {
        expired.push_back(session);
      }
    }
  }
  for (const auto& session : expired) {
    SessionStats stats = session->Stats();
    obs::Count("teleios_server_lease_expired_total");
    obs::PostEvent(
        "server.lease_expired",
        {{"session", std::to_string(stats.id)},
         {"peer", stats.peer},
         {"idle_millis",
          std::to_string(now - stats.last_activity_unix_millis)}});
    session->set_state("expired");
    // Half-closing wakes the handler out of its read poll; it unwinds
    // and Close()es the session, releasing budget and registry entry
    // through the one normal teardown path.
    session->ForceClose();
  }
  return expired.size();
}

std::shared_ptr<Session> SessionRegistry::Open(const std::string& peer,
                                               const std::string& protocol,
                                               size_t budget_bytes) {
  std::shared_ptr<Session> session;
  size_t live_now = 0;
  int64_t now = NowMillis();
  {
    MutexLock lock(mu_);
    uint64_t id = next_id_++;
    ++opened_;
    uint64_t key = Mix(id ^ Mix(static_cast<uint64_t>(
                           std::chrono::steady_clock::now()
                               .time_since_epoch()
                               .count())));
    session =
        std::make_shared<Session>(id, key, peer, protocol, budget_bytes);
    session->Touch(now);
    sessions_.emplace(id, session);
    live_now = sessions_.size();
  }
  obs::Count("teleios_server_connections_total");
  obs::SetGauge("teleios_server_sessions", static_cast<double>(live_now));
  obs::PostEvent("session.open", {{"session", std::to_string(session->id())},
                                  {"peer", peer},
                                  {"protocol", protocol}});
  return session;
}

void SessionRegistry::Close(const std::shared_ptr<Session>& session) {
  if (session == nullptr) return;
  size_t live_now = 0;
  {
    MutexLock lock(mu_);
    sessions_.erase(session->id());
    live_now = sessions_.size();
  }
  obs::SetGauge("teleios_server_sessions", static_cast<double>(live_now));
  SessionStats stats = session->Stats();
  obs::PostEvent("session.close",
                 {{"session", std::to_string(stats.id)},
                  {"peer", stats.peer},
                  {"queries", std::to_string(stats.queries_run)},
                  {"bytes_streamed", std::to_string(stats.bytes_streamed)}});
}

Status SessionRegistry::CancelStatement(uint64_t session_id,
                                        uint64_t cancel_key) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) session = it->second;
  }
  if (session == nullptr) {
    return Status::NotFound("no live session " + std::to_string(session_id));
  }
  if (session->cancel_key() != cancel_key) {
    obs::Count("teleios_server_bad_cancel_total");
    return Status::InvalidArgument("cancel key mismatch for session " +
                                   std::to_string(session_id));
  }
  session->CancelActiveStatement();
  return Status::OK();
}

void SessionRegistry::CancelAll() {
  std::vector<std::shared_ptr<Session>> all;
  {
    MutexLock lock(mu_);
    for (auto& [id, session] : sessions_) all.push_back(session);
  }
  for (auto& session : all) session->connection_token()->Cancel();
}

void SessionRegistry::ForceCloseAll() {
  std::vector<std::shared_ptr<Session>> all;
  {
    MutexLock lock(mu_);
    for (auto& [id, session] : sessions_) all.push_back(session);
  }
  for (auto& session : all) session->ForceClose();
}

size_t SessionRegistry::live() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

uint64_t SessionRegistry::opened_total() const {
  MutexLock lock(mu_);
  return opened_;
}

std::vector<SessionStats> SessionRegistry::Snapshot() const {
  std::vector<std::shared_ptr<Session>> all;
  {
    MutexLock lock(mu_);
    for (const auto& [id, session] : sessions_) all.push_back(session);
  }
  std::vector<SessionStats> stats;
  stats.reserve(all.size());
  for (const auto& session : all) stats.push_back(session->Stats());
  return stats;
}

bool SessionRegistry::Serves(const std::string& name) const {
  return name == "sys.sessions";
}

std::vector<std::string> SessionRegistry::TableNames() const {
  return {"sys.sessions"};
}

Result<TablePtr> SessionRegistry::Materialize(const std::string& name) {
  if (!Serves(name)) {
    return Status::NotFound("not a server virtual table: " + name);
  }
  auto table = std::make_shared<Table>(
      Schema({{"id", ColumnType::kInt64},
              {"peer", ColumnType::kString},
              {"protocol", ColumnType::kString},
              {"state", ColumnType::kString},
              {"queries_run", ColumnType::kInt64},
              {"bytes_streamed", ColumnType::kInt64},
              {"prepared_statements", ColumnType::kInt64},
              {"open_unix_millis", ColumnType::kInt64},
              {"last_activity_unix_millis", ColumnType::kInt64},
              {"client_id", ColumnType::kInt64}}));
  for (const SessionStats& s : Snapshot()) {
    table->column(0).AppendInt64(static_cast<int64_t>(s.id));
    table->column(1).AppendString(s.peer);
    table->column(2).AppendString(s.protocol);
    table->column(3).AppendString(s.state);
    table->column(4).AppendInt64(static_cast<int64_t>(s.queries_run));
    table->column(5).AppendInt64(static_cast<int64_t>(s.bytes_streamed));
    table->column(6).AppendInt64(static_cast<int64_t>(s.prepared_statements));
    table->column(7).AppendInt64(s.open_unix_millis);
    table->column(8).AppendInt64(s.last_activity_unix_millis);
    table->column(9).AppendInt64(static_cast<int64_t>(s.client_id));
  }
  return table;
}

}  // namespace teleios::server
