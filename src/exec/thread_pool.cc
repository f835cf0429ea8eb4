#include "exec/thread_pool.h"

#include <memory>

#include "common/strings.h"

namespace teleios::exec {

namespace {

/// The pool whose worker the calling thread is; nullptr elsewhere. One
/// slot per thread is enough: workers never run on another pool's
/// threads.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads, std::string name)
    : name_(std::move(name)) {
  if (threads < 1) threads = 1;
  int workers = threads - 1;
  auto metric = [&](const std::string& base) {
    return obs::WithLabel(base, "pool", name_);
  };
  auto& registry = obs::MetricsRegistry::Global();
  queue_depth_ = registry.GetGauge(metric("teleios_exec_queue_depth"));
  busy_workers_ = registry.GetGauge(metric("teleios_exec_busy_workers"));
  tasks_total_ = registry.GetCounter(metric("teleios_exec_tasks_total"));
  schedule_millis_ =
      registry.GetHistogram(metric("teleios_exec_schedule_millis"));
  registry.GetGauge(metric("teleios_exec_workers"))
      ->Set(static_cast<double>(workers));

  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Tasks still queued at shutdown run on the destroying thread, so a
  // submitted task is never dropped (a ParallelFor helper that finds its
  // region closed returns at once).
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(std::move(task));
  }
}

bool ThreadPool::OnWorkerThread() const { return t_worker_pool == this; }

ThreadPool::Stats ThreadPool::Snapshot() {
  Stats stats;
  stats.name = name_;
  stats.workers = workers();
  stats.parallelism = parallelism();
  {
    MutexLock lock(mu_);
    stats.queued = queue_.size();
  }
  stats.busy = static_cast<int>(busy_workers_->value());
  stats.tasks_total = tasks_total_->value();
  return stats;
}

void ThreadPool::Submit(std::function<void()> task) {
  Task t{std::move(task), std::chrono::steady_clock::now()};
  queue_depth_->Add(1);
  if (workers_.empty()) {
    // Serial pool: degenerate to immediate inline execution.
    RunTask(std::move(t));
    return;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(t));
  }
  wake_.notify_one();
}

void ThreadPool::RunTask(Task task) {
  queue_depth_->Add(-1);
  schedule_millis_->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - task.enqueued)
          .count());
  busy_workers_->Add(1);
  tasks_total_->Inc();
  task.fn();
  busy_workers_->Add(-1);
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) wake_.wait(lock.native());
      if (stop_) return;  // the destructor runs what is still queued
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(std::move(task));
  }
}

int ThreadPool::DefaultThreads() {
  if (uint64_t n = EnvNumber("TELEIOS_THREADS", 0); n >= 1) {
    return static_cast<int>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

Mutex g_pool_mu;
std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool>* slot =
      new std::unique_ptr<ThreadPool>();
  return *slot;
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  MutexLock lock(g_pool_mu);
  auto& slot = GlobalSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultThreads());
  return *slot;
}

void ThreadPool::SetGlobalThreads(int threads) {
  MutexLock lock(g_pool_mu);
  auto& slot = GlobalSlot();
  slot.reset();  // join the old pool before the new one exists
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace teleios::exec
