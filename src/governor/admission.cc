#include "governor/admission.h"

#include <algorithm>
#include <string>

#include "common/strings.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace teleios::governor {

AdmissionConfig AdmissionConfig::FromEnv() {
  AdmissionConfig config;
  uint64_t v = EnvNumber("TELEIOS_MAX_CONCURRENT_QUERIES", 0);
  if (v > 0) config.max_concurrent = static_cast<int>(v);
  return config;
}

void AdmissionTicket::reset() {
  if (controller_ != nullptr) controller_->ReleaseSlot();
  controller_ = nullptr;
}

void AdmissionController::Reconfigure(const AdmissionConfig& config) {
  {
    MutexLock lock(mu_);
    config_ = config;
  }
  cv_.notify_all();
}

void AdmissionController::ReportGaugesLocked() const {
  obs::SetGauge("teleios_governor_admission_running",
                static_cast<double>(running_));
  obs::SetGauge("teleios_governor_admission_queued",
                static_cast<double>(queue_.size()));
}

Result<AdmissionTicket> AdmissionController::Admit(
    const CancellationToken* token) {
  auto arrival = std::chrono::steady_clock::now();
  MutexLock lock(mu_);
  // Fast path: a free slot and nobody queued ahead.
  if (running_ < config_.max_concurrent && queue_.empty()) {
    ++running_;
    obs::Count("teleios_governor_admission_admitted_total");
    ReportGaugesLocked();
    return AdmissionTicket(this);
  }
  if (static_cast<int>(queue_.size()) >= config_.max_queue) {
    obs::Count("teleios_governor_admission_shed_total");
    obs::PostEvent("admission.shed",
                   {{"reason", "queue_full"},
                    {"queued", std::to_string(queue_.size())},
                    {"running", std::to_string(running_)}});
    return Status::Unavailable(
        "admission queue full (" + std::to_string(queue_.size()) +
        " waiting, " + std::to_string(running_) +
        " running); shedding load — retry later");
  }
  const uint64_t seq = next_seq_++;
  queue_.push_back(seq);
  ReportGaugesLocked();

  // The wait never outlives the caller's deadline; deadline-less callers
  // are bounded by max_wait so a wedged statement cannot strand the
  // queue forever.
  auto give_up_at = arrival + config_.max_wait;
  if (token != nullptr && token->has_deadline()) {
    give_up_at = std::min(give_up_at, token->deadline());
  }

  for (;;) {
    if (!queue_.empty() && queue_.front() == seq &&
        running_ < config_.max_concurrent) {
      queue_.pop_front();
      ++running_;
      obs::Count("teleios_governor_admission_admitted_total");
      obs::Observe("teleios_governor_admission_wait_millis",
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - arrival)
                       .count());
      ReportGaugesLocked();
      return AdmissionTicket(this);
    }
    if (token != nullptr) {
      Status live = token->Check();
      if (!live.ok()) {
        AbandonLocked(seq);
        return Status(live.code(),
                      "abandoned admission queue: " + live.message());
      }
    }
    if (std::chrono::steady_clock::now() >= give_up_at) {
      AbandonLocked(seq);
      obs::Count("teleios_governor_admission_timeout_total");
      obs::PostEvent("admission.shed",
                     {{"reason", "wait_timeout"},
                      {"queued", std::to_string(queue_.size())},
                      {"running", std::to_string(running_)}});
      return Status::Unavailable(
          "timed out waiting for an admission slot (" +
          std::to_string(running_) + " running); shedding load");
    }
    // Wake at least every 10ms to poll the token even when no slot
    // frees; correctness only needs the give_up_at bound.
    cv_.wait_until(lock.native(),
                   std::min(give_up_at, std::chrono::steady_clock::now() +
                                            std::chrono::milliseconds(10)));
  }
}

void AdmissionController::AbandonLocked(uint64_t seq) {
  auto it = std::find(queue_.begin(), queue_.end(), seq);
  if (it != queue_.end()) queue_.erase(it);
  ReportGaugesLocked();
  // The head may have changed — let the next waiter re-evaluate.
  cv_.notify_all();
}

void AdmissionController::ReleaseSlot() {
  {
    MutexLock lock(mu_);
    if (running_ > 0) --running_;
    ReportGaugesLocked();
  }
  cv_.notify_all();
}

int AdmissionController::running() const {
  MutexLock lock(mu_);
  return running_;
}

int AdmissionController::queued() const {
  MutexLock lock(mu_);
  return static_cast<int>(queue_.size());
}

}  // namespace teleios::governor
