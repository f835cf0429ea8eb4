#ifndef TELEIOS_GOVERNOR_FAULT_INJECTION_H_
#define TELEIOS_GOVERNOR_FAULT_INJECTION_H_

#include <cstdint>

#include "common/fault_program.h"
#include "common/thread_annotations.h"
#include "governor/memory_budget.h"

namespace teleios::governor {

/// A deterministic OOM program: the schedule's k-th counted Reserve()
/// after Arm() is refused with kResourceExhausted. Zero-byte
/// reservations are not counted (they never allocate).
using BudgetFaultSpec = FaultSchedule;

/// Wraps any MemoryBudget and deterministically refuses reservations per
/// an armed BudgetFaultSpec — the allocation-failure seam, sharing its
/// FaultProgram with io::FaultInjectingFileSystem and
/// server::FaultInjectingTransport. Disarmed it is a transparent
/// pass-through that still counts reservations. Passed-through
/// reservations charge `base`, so accounting exactness (balance to zero)
/// is testable under injection too. Every injected refusal increments
/// `teleios_governor_oom_injected_total`.
///
/// Install it with ScopedBudget (or as a query budget's parent) and
/// every engine charge site becomes a provably exception-safe OOM
/// point: tests sweep `inject_at` over k = 1..N and assert no crash, a
/// clean kResourceExhausted, and zero residual charge.
class FaultInjectingBudget : public MemoryBudget {
 public:
  /// `base` must outlive this wrapper.
  explicit FaultInjectingBudget(MemoryBudget* base)
      : MemoryBudget("oom-injector", kUnlimited, base) {}

  /// Installs `spec` and resets the reservation counter.
  void Arm(const BudgetFaultSpec& spec) {
    MutexLock lock(fault_mu_);
    program_.Arm(spec);
  }
  /// Back to pass-through (the counter keeps its value).
  void Disarm() {
    MutexLock lock(fault_mu_);
    program_.Disarm();
  }

  /// Reservations counted since the last Arm() (or construction).
  uint64_t reservations() const {
    MutexLock lock(fault_mu_);
    return program_.ops();
  }
  /// Refusals injected since the last Arm().
  uint64_t injected() const {
    MutexLock lock(fault_mu_);
    return program_.faults();
  }

  Status Reserve(size_t bytes) override;

 private:
  mutable Mutex fault_mu_;
  FaultProgram program_ TELEIOS_GUARDED_BY(fault_mu_);
};

}  // namespace teleios::governor

#endif  // TELEIOS_GOVERNOR_FAULT_INJECTION_H_
