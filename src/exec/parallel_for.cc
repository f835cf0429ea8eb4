#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "governor/memory_budget.h"
#include "obs/trace.h"

namespace teleios::exec {

MorselPlan PlanMorsels(size_t n, size_t grain_hint) {
  MorselPlan plan;
  if (n == 0) return plan;
  size_t grain = grain_hint;
  if (grain == 0) {
    grain = std::clamp<size_t>(n / 64, size_t{4096}, size_t{262144});
  }
  plan.grain = grain;
  plan.count = (n + grain - 1) / grain;
  return plan;
}

namespace {

/// One parallel region, shared by the caller and the helper tasks it
/// submits. A helper can start after the caller has returned (it waited
/// in the queue behind other work), so the region lives in a shared_ptr;
/// `body`, `cancel` and `budget` point into the caller's frame and are
/// touched only by threads inside the open region. The lowest failing
/// morsel index wins so the reported error matches what serial execution
/// would have hit first.
struct Region {
  Region(size_t n, MorselPlan plan, const MorselBody* body,
         const CancellationToken* cancel, governor::MemoryBudget* budget)
      : n(n), plan(plan), body(body), cancel(cancel), budget(budget) {}

  const size_t n;
  const MorselPlan plan;
  const MorselBody* const body;
  const CancellationToken* const cancel;
  governor::MemoryBudget* const budget;
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> executed{0};

  Mutex mu;
  std::condition_variable left;  // the last helper inside has left
  bool open TELEIOS_GUARDED_BY(mu) = true;
  int inside TELEIOS_GUARDED_BY(mu) = 0;
  size_t error_morsel TELEIOS_GUARDED_BY(mu) = SIZE_MAX;
  Status error TELEIOS_GUARDED_BY(mu);
  size_t exception_morsel TELEIOS_GUARDED_BY(mu) = SIZE_MAX;
  std::exception_ptr exception TELEIOS_GUARDED_BY(mu);

  /// Claims morsels until the cursor runs out or the token expires, on
  /// the caller's budget and token: a body that reserves memory on a
  /// pool thread charges the same per-query budget as the thread that
  /// opened the region, and a nested region opened from a body (it runs
  /// inline on the worker) sees the same token.
  void Work() {
    governor::ScopedBudget budget_scope(budget);
    ScopedCancel cancel_scope(cancel);
    for (;;) {
      if (cancel != nullptr && cancel->Expired()) return;
      size_t m = cursor.fetch_add(1, std::memory_order_relaxed);
      if (m >= plan.count) return;
      try {
        Status s = (*body)(m, plan.Begin(m), plan.End(m, n));
        if (!s.ok()) RecordError(m, std::move(s));
      } catch (...) {
        RecordException(m, std::current_exception());
      }
      executed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// A helper task's whole life: enter if the region is still open,
  /// claim morsels, leave.
  void Help() {
    {
      MutexLock lock(mu);
      if (!open) return;
      ++inside;
    }
    Work();
    MutexLock lock(mu);
    if (--inside == 0) left.notify_all();
  }

  /// Run by the caller after its own Work(): no helper enters from here
  /// on; blocks until every helper inside has left.
  void Close() {
    MutexLock lock(mu);
    open = false;
    while (inside > 0) left.wait(lock.native());
  }

  void RecordError(size_t morsel, Status status) {
    MutexLock lock(mu);
    if (morsel < error_morsel) {
      error_morsel = morsel;
      error = std::move(status);
    }
  }

  void RecordException(size_t morsel, std::exception_ptr e) {
    MutexLock lock(mu);
    if (morsel < exception_morsel) {
      exception_morsel = morsel;
      exception = e;
    }
  }
};

}  // namespace

Status ParallelFor(size_t n, const ParallelOptions& opts,
                   const MorselBody& body) {
  if (n == 0) return Status::OK();
  MorselPlan plan = PlanMorsels(n, opts.grain);
  ThreadPool& pool = ThreadPool::Global();
  // Regions opened without an explicit token still honor the governed
  // statement they run inside: the facade installs the per-query token
  // as the thread's CurrentCancel, which is how KillQuery stops a
  // morsel-driven scan whose operator never threaded a token through.
  const CancellationToken* cancel =
      opts.cancel != nullptr ? opts.cancel : CurrentCancel();

  bool serial =
      plan.count == 1 || pool.parallelism() == 1 || pool.OnWorkerThread();
  size_t threads =
      serial ? 1
             : std::min(static_cast<size_t>(pool.parallelism()), plan.count);

  // Record the fan-out/fan-in as one span of the caller's trace; its
  // duration covers dispatch through join.
  std::unique_ptr<obs::TraceSpan> span;
  if (opts.label != nullptr && obs::TraceActive()) {
    span = std::make_unique<obs::TraceSpan>(opts.label);
    span->SetAttr("morsels", std::to_string(plan.count));
    span->SetAttr("grain", std::to_string(plan.grain));
    span->SetAttr("threads", std::to_string(threads));
  }

  if (serial) {
    for (size_t m = 0; m < plan.count; ++m) {
      if (cancel != nullptr) {
        TELEIOS_RETURN_IF_ERROR(cancel->Check());
      }
      TELEIOS_RETURN_IF_ERROR(body(m, plan.Begin(m), plan.End(m, n)));
    }
    return Status::OK();
  }

  auto region = std::make_shared<Region>(n, plan, &body, cancel,
                                         governor::CurrentBudget());
  for (size_t t = 1; t < threads; ++t) {
    pool.Submit([region] { region->Help(); });
  }
  region->Work();
  region->Close();

  MutexLock lock(region->mu);
  if (region->exception &&
      region->exception_morsel <= region->error_morsel) {
    std::rethrow_exception(region->exception);
  }
  if (region->error_morsel != SIZE_MAX) return region->error;
  if (region->executed.load(std::memory_order_relaxed) < plan.count) {
    // Cancellation stopped morsels from starting.
    if (cancel != nullptr) {
      Status s = cancel->Check();
      if (!s.ok()) return s;
    }
    return Status::Internal("parallel region lost morsels");
  }
  return Status::OK();
}

}  // namespace teleios::exec
