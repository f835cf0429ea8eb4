#include "common/fault_program.h"

namespace teleios {

void FaultProgram::Arm(const FaultSchedule& schedule) {
  schedule_ = schedule;
  armed_ = schedule.inject_at > 0;
  crashed_ = false;
  ops_ = 0;
  faults_ = 0;
}

void FaultProgram::Disarm() {
  armed_ = false;
  crashed_ = false;
}

FaultProgram::Outcome FaultProgram::Next(bool applies) {
  ++ops_;
  if (crashed_) return Outcome::kCrashed;
  if (!armed_ || !applies) return Outcome::kPass;
  const uint64_t at = schedule_.inject_at;
  bool hit = ops_ == at || (schedule_.every_n > 0 && ops_ > at &&
                            (ops_ - at) % schedule_.every_n == 0);
  if (!hit) return Outcome::kPass;
  ++faults_;
  if (schedule_.crash) crashed_ = true;
  return Outcome::kFault;
}

}  // namespace teleios
