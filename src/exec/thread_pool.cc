#include "exec/thread_pool.h"

#include "common/strings.h"

namespace teleios::exec {

namespace {

/// Worker index on the pool that owns the calling thread; -1 elsewhere.
/// One slot per thread is enough: workers never run on another pool's
/// threads.
thread_local const ThreadPool* t_worker_pool = nullptr;
thread_local int t_worker_index = -1;

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
  steals_total_ = registry.GetCounter(metric("teleios_exec_steals_total"));
  schedule_millis_ =
      registry.GetHistogram(metric("teleios_exec_schedule_millis"));
  registry.GetGauge(metric("teleios_exec_workers"))
      ->Set(static_cast<double>(workers));

  deques_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    deques_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(inject_mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Tasks still queued at shutdown run on the destroying thread so a
  // TaskGroup waiting elsewhere can never hang on a dropped task.
  Task task;
  while (NextTask(-1, &task)) RunTask(std::move(task));
}

bool ThreadPool::OnWorkerThread() const {
  return t_worker_pool == this && t_worker_index >= 0;
}

ThreadPool::Stats ThreadPool::Snapshot() {
  Stats stats;
  stats.name = name_;
  stats.workers = workers();
  stats.parallelism = parallelism();
  {
    MutexLock lock(inject_mu_);
    stats.queued = inject_.size();
  }
  for (const auto& worker : deques_) {
    MutexLock lock(worker->mu);
    stats.queued += worker->deque.size();
  }
  stats.busy = static_cast<int>(busy_workers_->value());
  stats.tasks_total = tasks_total_->value();
  stats.steals_total = steals_total_->value();
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
  if (OnWorkerThread()) {
    Worker& own = *deques_[t_worker_index];
    MutexLock lock(own.mu);
    own.deque.push_back(std::move(t));
  } else {
    MutexLock lock(inject_mu_);
    inject_.push_back(std::move(t));
  }
  wake_.notify_one();
}

bool ThreadPool::NextTask(int self, Task* task) {
  // 1. Own deque, newest first (depth-first execution of forked work).
  if (self >= 0) {
    Worker& own = *deques_[self];
    MutexLock lock(own.mu);
    if (!own.deque.empty()) {
      *task = std::move(own.deque.back());
      own.deque.pop_back();
      return true;
    }
  }
  // 2. Injection queue, oldest first.
  {
    MutexLock lock(inject_mu_);
    if (!inject_.empty()) {
      *task = std::move(inject_.front());
      inject_.pop_front();
      return true;
    }
  }
  // 3. Steal from a sibling, oldest first. Start past our own slot so
  // victims rotate instead of worker 0 being mobbed.
  size_t n = deques_.size();
  for (size_t i = 0; i < n; ++i) {
    size_t victim = (static_cast<size_t>(self < 0 ? 0 : self) + 1 + i) % n;
    if (static_cast<int>(victim) == self) continue;
    Worker& other = *deques_[victim];
    MutexLock lock(other.mu);
    if (!other.deque.empty()) {
      *task = std::move(other.deque.front());
      other.deque.pop_front();
      steals_total_->Inc();
      return true;
    }
  }
  return false;
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

bool ThreadPool::TryRunOneTask() {
  Task task;
  if (!NextTask(OnWorkerThread() ? t_worker_index : -1, &task)) {
    return false;
  }
  RunTask(std::move(task));
  return true;
}

void ThreadPool::WorkerLoop(int index) {
  t_worker_pool = this;
  t_worker_index = index;
  for (;;) {
    Task task;
    if (NextTask(index, &task)) {
      RunTask(std::move(task));
      continue;
    }
    MutexLock lock(inject_mu_);
    if (stop_) return;
    if (!inject_.empty()) continue;
    // Re-poll for stealable work every few milliseconds: pushes to
    // sibling deques notify wake_, but a notification can slip between
    // our failed scan and this wait.
    wake_.wait_for(lock.native(), std::chrono::milliseconds(2));
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
