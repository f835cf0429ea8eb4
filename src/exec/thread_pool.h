#ifndef TELEIOS_EXEC_THREAD_POOL_H_
#define TELEIOS_EXEC_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace teleios::exec {

/// A thread pool over one FIFO queue under one mutex: Submit appends a
/// task and wakes one worker; an idle worker sleeps until it is woken or
/// the pool stops, so an idle pool costs no CPU.
///
/// A pool of parallelism `threads` spawns `threads - 1` workers: the
/// thread that fans work out claims morsels itself (ParallelFor), so
/// TELEIOS_THREADS=1 means zero workers and every task runs inline on
/// the caller — the serial behaviour.
///
/// Observability (per pool, labelled pool="<name>"):
///   teleios_exec_workers              gauge   spawned worker threads
///   teleios_exec_queue_depth          gauge   tasks waiting to run
///   teleios_exec_busy_workers         gauge   tasks currently executing
///   teleios_exec_tasks_total          counter tasks executed
///   teleios_exec_schedule_millis      histo   submit-to-start latency
class ThreadPool {
 public:
  /// `threads` is the target parallelism including the submitting thread
  /// (clamped to >= 1); `name` labels the pool's metrics.
  explicit ThreadPool(int threads, std::string name = "global");
  /// Joins the workers, then runs every task still queued on the
  /// destroying thread, so no submitted task is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Appends `task` to the queue and wakes one worker. With zero workers
  /// the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  /// Spawned worker threads (parallelism - 1).
  int workers() const { return static_cast<int>(workers_.size()); }
  /// Target parallelism (workers() + the submitting thread).
  int parallelism() const { return workers() + 1; }

  const std::string& name() const { return name_; }

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  /// Instantaneous snapshot for introspection (`sys.pools`): queued
  /// counts the tasks waiting in the queue; busy / totals come from this
  /// pool's registry metrics.
  struct Stats {
    std::string name;
    int workers = 0;
    int parallelism = 0;
    size_t queued = 0;
    int busy = 0;
    uint64_t tasks_total = 0;
  };
  Stats Snapshot();

  /// The process-wide pool, sized from TELEIOS_THREADS (default: the
  /// hardware concurrency) on first use.
  static ThreadPool& Global();

  /// Rebuilds the global pool with `threads` parallelism (tests, thread
  /// sweeps). Must not be called while tasks are in flight.
  static void SetGlobalThreads(int threads);

  /// Parallelism the global pool would be built with: TELEIOS_THREADS if
  /// set and valid, else std::thread::hardware_concurrency().
  static int DefaultThreads();

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();
  void RunTask(Task task);

  std::string name_;

  Mutex mu_;
  std::deque<Task> queue_ TELEIOS_GUARDED_BY(mu_);
  std::condition_variable wake_;
  bool stop_ TELEIOS_GUARDED_BY(mu_) = false;

  // Metric handles, resolved once (the registry guarantees stable
  // pointers).
  obs::Gauge* queue_depth_;
  obs::Gauge* busy_workers_;
  obs::Counter* tasks_total_;
  obs::Histogram* schedule_millis_;

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace teleios::exec

#endif  // TELEIOS_EXEC_THREAD_POOL_H_
