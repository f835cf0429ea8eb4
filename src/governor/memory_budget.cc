#include "governor/memory_budget.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace teleios::governor {

namespace {

/// Registry of live budgets backing AllBudgetStats(). Creation order is
/// kept (a vector, not a set) so parents list before their children.
Mutex& BudgetRegistryMutex() {
  static Mutex* mu = new Mutex();
  return *mu;
}

std::vector<MemoryBudget*>& BudgetRegistry() {
  static std::vector<MemoryBudget*>* budgets =
      new std::vector<MemoryBudget*>();
  return *budgets;
}

/// Updates the root-budget gauges when `budget` is the process root: only
/// it reports, so the series mean one thing however many budgets exist
/// (other budgets without a parent, such as a WAL commit's, included).
void ReportRootGauges(const MemoryBudget& budget) {
  if (&budget != &ProcessBudget()) return;
  // Charged and released on every operator's reservation: the gauges are
  // looked up once.
  static obs::Gauge* used = obs::MetricsRegistry::Global().GetGauge(
      "teleios_governor_budget_used_bytes");
  static obs::Gauge* peak = obs::MetricsRegistry::Global().GetGauge(
      "teleios_governor_budget_peak_bytes");
  used->Set(static_cast<double>(budget.used()));
  peak->Set(static_cast<double>(budget.peak()));
}

/// TELEIOS_MEMORY_BUDGET in bytes (common/strings.h EnvNumber grammar);
/// unset, 0 or unparsable = unlimited.
size_t EnvBudgetBytes() {
  uint64_t v = EnvNumber("TELEIOS_MEMORY_BUDGET", 0);
  return v == 0 ? MemoryBudget::kUnlimited : static_cast<size_t>(v);
}

}  // namespace

MemoryBudget::MemoryBudget(std::string name, size_t limit,
                           MemoryBudget* parent)
    : name_(std::move(name)), limit_(limit), parent_(parent) {
  MutexLock lock(BudgetRegistryMutex());
  BudgetRegistry().push_back(this);
}

MemoryBudget::~MemoryBudget() {
  MutexLock lock(BudgetRegistryMutex());
  auto& budgets = BudgetRegistry();
  budgets.erase(std::find(budgets.begin(), budgets.end(), this));
}

std::vector<BudgetStats> AllBudgetStats() {
  MutexLock lock(BudgetRegistryMutex());
  std::vector<BudgetStats> out;
  out.reserve(BudgetRegistry().size());
  for (const MemoryBudget* budget : BudgetRegistry()) {
    BudgetStats stats;
    stats.name = budget->name();
    stats.parent =
        budget->parent() != nullptr ? budget->parent()->name() : "";
    stats.limit = budget->limit();
    stats.used = budget->used();
    stats.peak = budget->peak();
    out.push_back(std::move(stats));
  }
  return out;
}

Status MemoryBudget::Reserve(size_t bytes) {
  if (bytes == 0) return Status::OK();
  bool refused = false;
  size_t used_now = 0;
  {
    MutexLock lock(mu_);
    if (limit_ != kUnlimited &&
        (bytes > limit_ || used_ > limit_ - bytes)) {
      refused = true;
      used_now = used_;
    } else {
      used_ += bytes;
    }
  }
  if (refused) {
    // Counted and posted outside mu_ so the event sink's I/O never runs
    // under a budget lock.
    obs::Count("teleios_governor_budget_denied_total");
    obs::PostEvent("budget.refused",
                   {{"budget", name_},
                    {"requested_bytes", std::to_string(bytes)},
                    {"used_bytes", std::to_string(used_now)},
                    {"limit_bytes", std::to_string(limit_)}});
    return Status::ResourceExhausted(
        "memory budget '" + name_ + "' exhausted: requested " +
        std::to_string(bytes) + " bytes with " + std::to_string(used_now) +
        "/" + std::to_string(limit_) + " in use");
  }
  if (parent_ != nullptr) {
    Status up = parent_->Reserve(bytes);
    if (!up.ok()) {
      MutexLock lock(mu_);
      used_ -= bytes;
      return up;
    }
  }
  {
    // Peak is recorded only once the whole ancestor chain accepted, so
    // a refused reservation never inflates the high-water mark.
    MutexLock lock(mu_);
    if (used_ > peak_) peak_ = used_;
  }
  if (parent_ == nullptr) ReportRootGauges(*this);
  return Status::OK();
}

void MemoryBudget::Release(size_t bytes) {
  if (bytes == 0) return;
  {
    MutexLock lock(mu_);
    used_ = bytes > used_ ? 0 : used_ - bytes;
  }
  if (parent_ != nullptr) {
    parent_->Release(bytes);
  } else {
    ReportRootGauges(*this);
  }
}

Result<BudgetCharge> TryCharge(MemoryBudget* budget, size_t bytes,
                               const std::string& what) {
  Status reserved = budget->Reserve(bytes);
  if (!reserved.ok()) {
    return Status(reserved.code(), what + ": " + reserved.message());
  }
  return BudgetCharge(budget, bytes);
}

MemoryBudget& ProcessBudget() {
  static MemoryBudget* root =
      new MemoryBudget("process", EnvBudgetBytes());
  return *root;
}

namespace {
thread_local MemoryBudget* g_current_budget = nullptr;
}  // namespace

MemoryBudget* CurrentBudget() {
  return g_current_budget != nullptr ? g_current_budget : &ProcessBudget();
}

MemoryBudget* SetCurrentBudget(MemoryBudget* budget) {
  MemoryBudget* prev = g_current_budget;
  g_current_budget = budget;
  return prev;
}

Result<BudgetCharge> ChargeCurrent(size_t bytes, const std::string& what) {
  return TryCharge(CurrentBudget(), bytes, what);
}

}  // namespace teleios::governor
