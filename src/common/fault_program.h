#ifndef TELEIOS_COMMON_FAULT_PROGRAM_H_
#define TELEIOS_COMMON_FAULT_PROGRAM_H_

#include <cstdint>

namespace teleios {

/// When a deterministic fault fires: the `inject_at`-th counted op after
/// Arm() faults; with `every_n` > 0 the fault also repeats every
/// `every_n` ops after that (fault-rate benchmarks); with `crash` every
/// op after the first fault fails too, simulating a process crash or a
/// yanked disk at that exact point.
struct FaultSchedule {
  uint64_t inject_at = 1;  // 1-based op index; 0 disables (count only)
  uint64_t every_n = 0;
  bool crash = false;
};

/// Decides the fate of the k-th counted op for every fault-injection
/// seam (file system, memory budget, transport). The seam supplies what
/// a fault does and its own metric; this class owns which op faults.
///
/// It has no lock: each seam calls it under the mutex the seam already
/// holds. The op counter then advances one op at a time, so "fault the
/// k-th op" stays exact when threads share a seam — which op lands on k
/// depends on scheduling, but exactly one does.
class FaultProgram {
 public:
  enum class Outcome {
    kPass,     // behave normally
    kFault,    // the scheduled fault fires on this op
    kCrashed,  // a crash-mode fault already fired; this op fails too
  };

  /// Installs `schedule` and resets the op and fault counters.
  void Arm(const FaultSchedule& schedule);
  /// Back to pass-through; the counters keep their values.
  void Disarm();

  /// Counts one op and decides its fate. A seam passes `applies` =
  /// false when its fault kind cannot act on this op (a bit flip on a
  /// write): a scheduled hit then passes and records neither a fault
  /// nor a crash.
  Outcome Next(bool applies = true);

  /// Ops counted since the last Arm() (or construction).
  uint64_t ops() const { return ops_; }
  /// Faults fired since the last Arm().
  uint64_t faults() const { return faults_; }
  bool crashed() const { return crashed_; }

 private:
  FaultSchedule schedule_;
  bool armed_ = false;
  bool crashed_ = false;
  uint64_t ops_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace teleios

#endif  // TELEIOS_COMMON_FAULT_PROGRAM_H_
