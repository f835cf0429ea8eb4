#include "governor/fault_injection.h"

#include <string>

#include "obs/metrics.h"

namespace teleios::governor {

Status FaultInjectingBudget::Reserve(size_t bytes) {
  if (bytes == 0) return Status::OK();
  FaultProgram::Outcome outcome = FaultProgram::Outcome::kPass;
  uint64_t index = 0;
  {
    MutexLock lock(fault_mu_);
    outcome = program_.Next();
    index = program_.ops();
  }
  if (outcome == FaultProgram::Outcome::kPass) {
    // MemoryBudget::Reserve charges this node (unlimited) and the
    // wrapped base via the parent chain.
    return MemoryBudget::Reserve(bytes);
  }
  if (outcome == FaultProgram::Outcome::kFault) {
    obs::Count("teleios_governor_oom_injected_total");
  }
  return Status::ResourceExhausted(
      "injected allocation failure at reservation #" + std::to_string(index));
}

}  // namespace teleios::governor
