#include "obs/query_registry.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace teleios::obs {

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kRunning:
      return "running";
  }
  return "unknown";
}

IntrospectionConfig IntrospectionConfig::FromEnv() {
  IntrospectionConfig config;
  if (const char* env = std::getenv("TELEIOS_SLOW_QUERY_MS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    double v = std::strtod(env, &end);
    if (end != env && v >= 0) config.slow_query_millis = v;
  }
  if (uint64_t v = EnvNumber("TELEIOS_TRACE_SAMPLE", 0); v > 0) {
    config.trace_sample_every = v;
  }
  if (uint64_t v = EnvNumber("TELEIOS_QUERY_LOG_CAPACITY", 0); v > 0) {
    config.query_log_capacity = static_cast<size_t>(v);
  }
  return config;
}

QueryGuard::~QueryGuard() {
  if (registry_ != nullptr) registry_->Abandon(id_);
}

QueryGuard& QueryGuard::operator=(QueryGuard&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr) registry_->Abandon(id_);
    registry_ = other.registry_;
    id_ = other.id_;
    token_ = std::move(other.token_);
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

ActiveQueryRegistry::ActiveQueryRegistry(IntrospectionConfig config) {
  MutexLock lock(mu_);
  config_ = config;
}

QueryGuard ActiveQueryRegistry::Start(std::string tier, std::string statement,
                                      const CancellationToken* parent) {
  auto token = std::make_shared<CancellationToken>();
  // Linked before the token is visible to anyone else.
  token->LinkParent(parent);

  QueryGuard guard;
  guard.registry_ = this;
  guard.token_ = token;

  Entry entry;
  entry.start = std::chrono::steady_clock::now();
  entry.token = std::move(token);
  entry.info.tier = std::move(tier);
  entry.info.statement = std::move(statement);
  entry.info.state = QueryState::kQueued;
  entry.info.start_unix_millis = UnixMillisNow();

  Count("teleios_obs_queries_started_total");
  MutexLock lock(mu_);
  guard.id_ = next_id_++;
  entry.info.id = guard.id_;
  active_.emplace(guard.id_, std::move(entry));
  SetGauge("teleios_obs_queries_active", static_cast<double>(active_.size()));
  return guard;
}

void ActiveQueryRegistry::MarkRunning(const QueryGuard& guard,
                                      double queued_millis) {
  MutexLock lock(mu_);
  auto it = active_.find(guard.id_);
  if (it == active_.end()) return;
  it->second.info.state = QueryState::kRunning;
  it->second.info.queued_millis = queued_millis;
}

Status ActiveQueryRegistry::Kill(uint64_t id) {
  std::shared_ptr<CancellationToken> token;
  std::string tier;
  {
    MutexLock lock(mu_);
    auto it = active_.find(id);
    if (it == active_.end()) {
      return Status::NotFound("no active query with id " + std::to_string(id));
    }
    token = it->second.token;
    tier = it->second.info.tier;
  }
  // Cancel outside the lock: the token is shared, and the query's own
  // Finish may race in — both orders are fine, the token is sticky.
  token->Cancel();
  Count("teleios_obs_queries_killed_total");
  PostEvent("query.killed",
            {{"id", std::to_string(id)}, {"tier", std::move(tier)}});
  return Status::OK();
}

bool ActiveQueryRegistry::ShouldSample(uint64_t id) const {
  MutexLock lock(mu_);
  return config_.trace_sample_every > 0 &&
         id % config_.trace_sample_every == 0;
}

void ActiveQueryRegistry::FinishLocked(uint64_t id, StatusCode code,
                                       int64_t rows,
                                       uint64_t peak_budget_bytes,
                                       std::string trace_json) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Entry entry = std::move(it->second);
  active_.erase(it);
  SetGauge("teleios_obs_queries_active", static_cast<double>(active_.size()));

  QueryCompletion record;
  record.id = entry.info.id;
  record.tier = std::move(entry.info.tier);
  record.statement = std::move(entry.info.statement);
  record.status = StatusCodeName(code);
  record.rows = rows;
  record.latency_millis = MillisSince(entry.start);
  record.queued_millis = entry.info.queued_millis;
  record.peak_budget_bytes = peak_budget_bytes;
  record.end_unix_millis = UnixMillisNow();
  record.trace_json = std::move(trace_json);

  ++finished_;
  Count("teleios_obs_queries_finished_total");
  Count(WithLabel("teleios_obs_query_status_total", "code", record.status));
  Observe("teleios_obs_query_latency_millis", record.latency_millis);

  PostEvent("query.finish",
            {{"id", std::to_string(record.id)},
             {"tier", record.tier},
             {"status", record.status},
             {"rows", std::to_string(record.rows)},
             {"latency_millis", std::to_string(record.latency_millis)},
             {"peak_budget_bytes", std::to_string(record.peak_budget_bytes)}});
  if (config_.slow_query_millis >= 0 &&
      record.latency_millis >= config_.slow_query_millis) {
    Count("teleios_obs_slow_queries_total");
    PostEvent("query.slow",
              {{"id", std::to_string(record.id)},
               {"tier", record.tier},
               {"statement", record.statement},
               {"latency_millis", std::to_string(record.latency_millis)},
               {"threshold_millis",
                std::to_string(config_.slow_query_millis)}});
  }

  log_.push_back(std::move(record));
  while (log_.size() > config_.query_log_capacity) {
    log_.pop_front();
    ++log_dropped_;
  }
}

void ActiveQueryRegistry::Finish(QueryGuard guard, StatusCode code,
                                 int64_t rows, uint64_t peak_budget_bytes,
                                 std::string trace_json) {
  if (guard.registry_ != this) return;
  guard.registry_ = nullptr;  // disarm the Abandon path
  MutexLock lock(mu_);
  FinishLocked(guard.id_, code, rows, peak_budget_bytes,
               std::move(trace_json));
}

void ActiveQueryRegistry::Abandon(uint64_t id) {
  MutexLock lock(mu_);
  FinishLocked(id, StatusCode::kInternal, -1, 0, "");
}

std::vector<ActiveQuery> ActiveQueryRegistry::Active() const {
  MutexLock lock(mu_);
  std::vector<ActiveQuery> out;
  out.reserve(active_.size());
  for (const auto& [id, entry] : active_) {
    ActiveQuery info = entry.info;
    info.elapsed_millis = MillisSince(entry.start);
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<QueryCompletion> ActiveQueryRegistry::Log() const {
  MutexLock lock(mu_);
  return std::vector<QueryCompletion>(log_.begin(), log_.end());
}

uint64_t ActiveQueryRegistry::started_total() const {
  MutexLock lock(mu_);
  return next_id_ - 1;
}

uint64_t ActiveQueryRegistry::finished_total() const {
  MutexLock lock(mu_);
  return finished_;
}

uint64_t ActiveQueryRegistry::log_dropped_total() const {
  MutexLock lock(mu_);
  return log_dropped_;
}

IntrospectionConfig ActiveQueryRegistry::config() const {
  MutexLock lock(mu_);
  return config_;
}

void ActiveQueryRegistry::Reconfigure(const IntrospectionConfig& config) {
  MutexLock lock(mu_);
  config_ = config;
  while (log_.size() > config_.query_log_capacity) {
    log_.pop_front();
    ++log_dropped_;
  }
}

}  // namespace teleios::obs
