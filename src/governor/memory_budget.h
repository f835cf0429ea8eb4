#ifndef TELEIOS_GOVERNOR_MEMORY_BUDGET_H_
#define TELEIOS_GOVERNOR_MEMORY_BUDGET_H_

#include <cstddef>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace teleios::governor {

/// A hierarchical memory budget: the process root owns the global limit
/// and per-query/per-chain children charge against both their own limit
/// and every ancestor's. Engines reserve *before* allocating, so an
/// oversized query surfaces as a clean `kResourceExhausted` for that
/// query instead of a process-wide `std::bad_alloc` abort.
///
/// Reservations are advisory accounting of the big, size-predictable
/// buffers (hash-table partials, sort selections, array/raster
/// materializations, centroid partials) — not an allocator hook. The
/// invariant that matters for robustness is RAII: every Reserve is
/// paired with a Release through BudgetCharge, so `used()` returns to
/// zero when a query finishes, on success *and* on every error path.
///
/// Reserve/Release are virtual so a FaultInjectingBudget (see
/// governor/fault_injection.h) can be dropped in anywhere a budget is
/// installed, mirroring io::FaultInjectingFileSystem.
class MemoryBudget {
 public:
  static constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

  /// `parent` (may be nullptr) must outlive this budget. `limit` is this
  /// node's own cap; kUnlimited defers entirely to the ancestors. Every
  /// budget self-registers for AllBudgetStats() enumeration.
  MemoryBudget(std::string name, size_t limit,
               MemoryBudget* parent = nullptr);
  virtual ~MemoryBudget();

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes` against this budget and every ancestor; on any
  /// refusal nothing is left charged anywhere and the result is
  /// `kResourceExhausted` naming the budget that refused.
  virtual Status Reserve(size_t bytes);

  /// Returns `bytes` previously reserved (here and up the chain).
  virtual void Release(size_t bytes);

  const std::string& name() const { return name_; }
  size_t limit() const { return limit_; }
  MemoryBudget* parent() const { return parent_; }

  size_t used() const {
    MutexLock lock(mu_);
    return used_;
  }
  /// High-water mark of used() since construction.
  size_t peak() const {
    MutexLock lock(mu_);
    return peak_;
  }

 private:
  const std::string name_;
  const size_t limit_;
  MemoryBudget* const parent_;
  mutable Mutex mu_;
  size_t used_ TELEIOS_GUARDED_BY(mu_) = 0;
  size_t peak_ TELEIOS_GUARDED_BY(mu_) = 0;
};

/// RAII ownership of one reservation: releases on destruction. Movable,
/// so it can live in a Result<> and be handed across scopes; an empty
/// charge (default-constructed or moved-from) releases nothing.
class BudgetCharge {
 public:
  BudgetCharge() = default;
  BudgetCharge(MemoryBudget* budget, size_t bytes)
      : budget_(budget), bytes_(bytes) {}
  ~BudgetCharge() { reset(); }

  BudgetCharge(BudgetCharge&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  BudgetCharge& operator=(BudgetCharge&& other) noexcept {
    if (this != &other) {
      reset();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  BudgetCharge(const BudgetCharge&) = delete;
  BudgetCharge& operator=(const BudgetCharge&) = delete;

  /// Releases the reservation now (idempotent).
  void reset() {
    if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

  size_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  size_t bytes_ = 0;
};

/// Reserves `bytes` on `budget` and wraps the reservation in a charge;
/// `what` labels the refusal message ("group-aggregate hash tables").
Result<BudgetCharge> TryCharge(MemoryBudget* budget, size_t bytes,
                               const std::string& what);

/// Point-in-time reading of one live budget, for `sys.budgets`.
struct BudgetStats {
  std::string name;
  std::string parent;  ///< parent budget's name, "" at the root
  size_t limit = 0;    ///< MemoryBudget::kUnlimited when uncapped
  size_t used = 0;
  size_t peak = 0;
};

/// Snapshot of every live MemoryBudget (the process root, per-query
/// children, engine scratch budgets). The registration lock is held for
/// the whole walk, so no budget is destroyed mid-read; creation order is
/// preserved (parents precede children).
std::vector<BudgetStats> AllBudgetStats();

/// The process-root budget. Its limit comes from TELEIOS_MEMORY_BUDGET
/// (bytes, with an optional k/m/g suffix; unset or 0 = unlimited), read
/// once at first use.
MemoryBudget& ProcessBudget();

/// The budget the *current thread's* work charges against; defaults to
/// ProcessBudget(). The facade installs a per-query child here, and
/// exec::ParallelFor propagates the caller's budget onto pool workers
/// for the duration of a parallel region, so morsel-local reservations
/// land on the right query.
MemoryBudget* CurrentBudget();

/// Installs `budget` as the current thread's budget (nullptr restores
/// the process root); returns the previous value.
MemoryBudget* SetCurrentBudget(MemoryBudget* budget);

/// RAII thread-local budget override.
class ScopedBudget {
 public:
  explicit ScopedBudget(MemoryBudget* budget)
      : prev_(SetCurrentBudget(budget)) {}
  ~ScopedBudget() { SetCurrentBudget(prev_); }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  MemoryBudget* prev_;
};

/// TryCharge against the current thread's budget — the one-liner used
/// at the engines' allocation-heavy call sites.
Result<BudgetCharge> ChargeCurrent(size_t bytes, const std::string& what);

/// Runs `fn`, translating a real allocation failure into
/// `kResourceExhausted`. This is the ONLY place TELEIOS may catch
/// std::bad_alloc (teleios_lint rule TL005): everywhere else OOM either
/// never happens (the budget refused first) or propagates here. Used by
/// the facade around whole statements as the last-resort backstop for
/// allocations the budget estimates missed.
template <typename Fn>
auto WithOomGuard(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        std::string(what) +
        ": allocation failed (std::bad_alloc); raise "
        "TELEIOS_MEMORY_BUDGET headroom or shrink the query");
  }
}

}  // namespace teleios::governor

#endif  // TELEIOS_GOVERNOR_MEMORY_BUDGET_H_
