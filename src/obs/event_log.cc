#include "obs/event_log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "obs/metrics.h"

namespace teleios::obs {

namespace {

size_t CapacityFromEnv() {
  uint64_t v = EnvNumber("TELEIOS_EVENT_LOG_CAPACITY", 0);
  return v > 0 ? static_cast<size_t>(v) : EventLog::kDefaultCapacity;
}

}  // namespace

int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string JsonEscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

std::string Event::ToJson() const {
  std::string out = "{\"ts_millis\": " + std::to_string(unix_millis) +
                    ", \"type\": \"" + JsonEscapeString(type) + "\"";
  for (const auto& [k, v] : fields) {
    out += ", \"" + JsonEscapeString(k) + "\": \"" + JsonEscapeString(v) +
           "\"";
  }
  out += "}";
  return out;
}

const std::string& Event::Field(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return kEmpty;
}

EventLog::EventLog(size_t capacity) : capacity_(capacity) {}

EventLog::~EventLog() = default;

EventLog& EventLog::Global() {
  static EventLog* log = [] {
    auto* l = new EventLog(CapacityFromEnv());
    const char* path = std::getenv("TELEIOS_EVENT_LOG_PATH");
    if (path != nullptr && *path != '\0') {
      // Sink failure must not fail startup; the drop is visible as a
      // zero-event sink plus the error counter.
      Status opened = l->SetSinkPath(path);
      if (!opened.ok()) {
        Count("teleios_obs_event_sink_errors_total");
      }
    }
    return l;
  }();
  return *log;
}

void EventLog::Post(std::string type,
                    std::vector<std::pair<std::string, std::string>> fields) {
  Event event;
  event.unix_millis = UnixMillisNow();
  event.type = std::move(type);
  event.fields = std::move(fields);
  Count("teleios_obs_events_total");
  MutexLock lock(mu_);
  if (sink_ != nullptr) {
    std::string line = event.ToJson() + "\n";
    Status appended = sink_->Append(line);
    if (appended.ok()) appended = sink_->Flush();
    if (!appended.ok()) {
      Count("teleios_obs_event_sink_errors_total");
    }
  }
  ++posted_;
  ring_.push_back(std::move(event));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

std::vector<Event> EventLog::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<Event>(ring_.begin(), ring_.end());
}

uint64_t EventLog::posted_total() const {
  MutexLock lock(mu_);
  return posted_;
}

uint64_t EventLog::dropped_total() const {
  MutexLock lock(mu_);
  return dropped_;
}

Status EventLog::SetSinkPath(const std::string& path) {
  std::unique_ptr<EventSink> file;
  if (!path.empty()) {
    // The io layer opens (and rotates aside) the actual file; see
    // OpenJsonlEventSink in event_log.h for why the implementation
    // lives in src/io/event_sink.cc.
    TELEIOS_ASSIGN_OR_RETURN(file, OpenJsonlEventSink(path));
  }
  MutexLock lock(mu_);
  if (sink_ != nullptr) {
    // Best effort: a failed sync/close loses buffered diagnostics,
    // nothing more; the new sink (or no sink) takes over regardless.
    // The drop is visible on the error counter rather than silent.
    Status closed = sink_->Sync();
    if (closed.ok()) closed = sink_->Close();
    if (!closed.ok()) {
      Count("teleios_obs_event_sink_errors_total");
    }
  }
  sink_ = std::move(file);
  return Status::OK();
}

Status EventLog::SyncSink() {
  MutexLock lock(mu_);
  if (sink_ == nullptr) return Status::OK();
  Status synced = sink_->Flush();
  if (synced.ok()) synced = sink_->Sync();
  if (!synced.ok()) {
    Count("teleios_obs_event_sink_errors_total");
  }
  return synced;
}

void EventLog::Reset() {
  MutexLock lock(mu_);
  ring_.clear();
  posted_ = 0;
  dropped_ = 0;
}

void EventLog::SetCapacity(size_t capacity) {
  MutexLock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void PostEvent(std::string type,
               std::vector<std::pair<std::string, std::string>> fields) {
  EventLog::Global().Post(std::move(type), std::move(fields));
}

}  // namespace teleios::obs
