#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "array/array.h"
#include "array/array_ops.h"
#include "common/thread_annotations.h"
#include "core/observatory.h"
#include "eo/scene.h"
#include "common/cancellation.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "mining/features.h"
#include "mining/kmeans.h"
#include "noa/chain.h"
#include "obs/metrics.h"
#include "relational/sql_engine.h"
#include "sciql/sciql_engine.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "vault/formats.h"
#include "vault/vault.h"

namespace teleios::exec {
namespace {

namespace fs = std::filesystem;

/// Restores the global pool to the environment default on scope exit so
/// thread-sweep tests cannot leak their setting into other suites.
class GlobalThreadsGuard {
 public:
  GlobalThreadsGuard() = default;
  ~GlobalThreadsGuard() { ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads()); }
};

// --- annotated mutex wrappers (common/thread_annotations.h) ---------------
//
// The wrappers must stay byte-for-byte equivalent to the std primitives
// at runtime: these tests hammer them from pool threads so the TSan
// pass (check.sh pass 4) verifies the RAII bookkeeping really locks.

/// Runs `body(i)` for every i in [0, n) as grain-1 morsels on a 4-thread
/// global pool, so the bodies run concurrently on pool threads.
void OnPoolThreads(size_t n, const std::function<void(size_t)>& body) {
  ThreadPool::SetGlobalThreads(4);
  ParallelOptions opts;
  opts.grain = 1;
  Status st = ParallelFor(n, opts, [&](size_t m, size_t, size_t) {
    body(m);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(ThreadAnnotationsTest, MutexLockWrappersExcludeEachOther) {
  GlobalThreadsGuard guard;
  Mutex mu;
  int counter = 0;  // protected by mu
  OnPoolThreads(4, [&](size_t) {
    for (int i = 0; i < 1000; ++i) {
      MutexLock lock(mu);
      ++counter;
    }
  });
  MutexLock lock(mu);
  EXPECT_EQ(counter, 4000);
}

TEST(ThreadAnnotationsTest, TryLockGuardsTheSameState) {
  GlobalThreadsGuard guard;
  Mutex mu;
  int counter = 0;  // protected by mu
  std::atomic<int> acquired{0};
  OnPoolThreads(4, [&](size_t) {
    for (int i = 0; i < 1000; ++i) {
      if (mu.TryLock()) {
        ++counter;
        mu.Unlock();
        acquired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  MutexLock lock(mu);
  EXPECT_EQ(counter, acquired.load(std::memory_order_relaxed));
  EXPECT_GT(counter, 0);
}

TEST(ThreadAnnotationsTest, SharedMutexReadersSeeConsistentState) {
  GlobalThreadsGuard guard;
  SharedMutex mu;
  std::vector<int> data{0};  // protected by mu; back() == size()-1 invariant
  std::atomic<int> reads{0};
  // Morsels 0 and 1 write, 2 and 3 read.
  OnPoolThreads(4, [&](size_t morsel) {
    for (int i = 0; i < 500; ++i) {
      if (morsel < 2) {
        WriterMutexLock lock(mu);
        data.push_back(data.back() + 1);
      } else {
        ReaderMutexLock lock(mu);
        EXPECT_EQ(data.back(), static_cast<int>(data.size()) - 1);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  WriterMutexLock lock(mu);
  EXPECT_EQ(data.size(), 1001u);
  EXPECT_EQ(reads.load(std::memory_order_relaxed), 1000);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, LifecycleRunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4, "lifecycle_test");
    EXPECT_EQ(pool.workers(), 3);
    EXPECT_EQ(pool.parallelism(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor joins workers and drains leftovers.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1, "serial_test");
  EXPECT_EQ(pool.workers(), 0);
  std::thread::id caller = std::this_thread::get_id();
  bool inline_run = false;
  pool.Submit([&] { inline_run = std::this_thread::get_id() == caller; });
  EXPECT_TRUE(inline_run);
  EXPECT_FALSE(pool.OnWorkerThread());
}

TEST(ThreadPoolTest, ThreadCountClampedToOne) {
  ThreadPool pool(0, "clamp_test");
  EXPECT_EQ(pool.parallelism(), 1);
}

/// CPU time and voluntary context switches the process has used.
struct ProcessUsage {
  double cpu_millis = 0;
  long voluntary_switches = 0;

  static ProcessUsage Now() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto millis = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) / 1e3;
    };
    return {millis(ru.ru_utime) + millis(ru.ru_stime), ru.ru_nvcsw};
  }
};

TEST(ThreadPoolTest, IdleWorkersSleep) {
  // A server-sized pool with nothing queued: its workers must sleep
  // until woken, not re-poll. A 2 ms re-poll across 64 workers costs
  // about 16k switches and over 200 ms of CPU in this window.
  ThreadPool pool(65, "idle_test");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // parked
  ProcessUsage before = ProcessUsage::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ProcessUsage after = ProcessUsage::Now();
  EXPECT_LT(after.voluntary_switches - before.voluntary_switches, 500);
  EXPECT_LT(after.cpu_millis - before.cpu_millis, 50.0);
}

TEST(ThreadPoolTest, TasksCounterAndQueueDepthSettle) {
  obs::Counter* tasks = obs::MetricsRegistry::Global().GetCounter(
      obs::WithLabel("teleios_exec_tasks_total", "pool", "metrics_test"));
  obs::Gauge* depth = obs::MetricsRegistry::Global().GetGauge(
      obs::WithLabel("teleios_exec_queue_depth", "pool", "metrics_test"));
  uint64_t before = tasks->value();
  {
    ThreadPool pool(2, "metrics_test");
    for (int i = 0; i < 50; ++i) pool.Submit([] {});
  }
  EXPECT_EQ(tasks->value(), before + 50);
  EXPECT_EQ(depth->value(), 0);
}

TEST(ThreadPoolTest, DefaultThreadsHonorsEnv) {
  ::setenv("TELEIOS_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 5);
  ::setenv("TELEIOS_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);  // invalid -> hardware
  ::unsetenv("TELEIOS_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// ---------------------------------------------------------------------------
// MorselPlan / ParallelFor

TEST(MorselPlanTest, DependsOnlyOnInputSize) {
  MorselPlan plan = PlanMorsels(1 << 20);
  EXPECT_GT(plan.count, 1u);
  EXPECT_EQ(plan.Begin(0), 0u);
  EXPECT_EQ(plan.End(plan.count - 1, 1 << 20), size_t{1} << 20);
  // Small inputs are one morsel: the serial fast path.
  EXPECT_EQ(PlanMorsels(1000).count, 1u);
  // Explicit grain is respected.
  EXPECT_EQ(PlanMorsels(100, 10).count, 10u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelOptions opts;
  opts.grain = 64;
  Status st = ParallelFor(kN, opts, [&](size_t, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, LowestMorselErrorWins) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  ParallelOptions opts;
  opts.grain = 1;
  Status st = ParallelFor(64, opts, [&](size_t m, size_t, size_t) {
    if (m == 3 || m == 40) {
      return Status::InvalidArgument("morsel " + std::to_string(m));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "morsel 3");
}

TEST(ParallelForTest, BodyExceptionPropagates) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  ParallelOptions opts;
  opts.grain = 1;
  EXPECT_THROW(
      {
        (void)ParallelFor(32, opts, [&](size_t m, size_t, size_t) -> Status {
          if (m == 5) throw std::runtime_error("kaboom");
          return Status::OK();
        });
      },
      std::runtime_error);
}

TEST(ParallelForTest, CallerRunsOnlyItsOwnMorsels) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(2);  // one worker
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<bool> release{false};
  auto block = [&release] {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // Task A occupies the only worker; task B waits in the queue behind it.
  std::atomic<bool> a_started{false};
  pool.Submit([&] {
    a_started.store(true);
    block();
  });
  while (!a_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> b_on_caller{false};
  pool.Submit([&] {
    b_on_caller.store(std::this_thread::get_id() == caller);
    block();
  });

  // The region's helper queues behind B, so the caller claims all eight
  // morsels itself; it must then return at once, not run B meanwhile.
  std::atomic<int> calls{0};
  ParallelOptions opts;
  opts.grain = 1;
  auto start = std::chrono::steady_clock::now();
  Status st = ParallelFor(8, opts, [&](size_t, size_t, size_t) {
    calls.fetch_add(1);
    return Status::OK();
  });
  auto elapsed = std::chrono::steady_clock::now() - start;
  release.store(true);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls.load(), 8);
  EXPECT_FALSE(b_on_caller.load());
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  // Rebuilding the pool drains A, B and the late helper, which finds the
  // region closed and leaves the body alone.
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelForTest, CancellationStopsUnstartedMorsels) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(2);
  CancellationToken token;
  std::atomic<size_t> executed{0};
  ParallelOptions opts;
  opts.grain = 1;
  opts.cancel = &token;
  Status st = ParallelFor(10000, opts, [&](size_t, size_t, size_t) {
    executed.fetch_add(1);
    token.Cancel();  // cancel from inside the first morsels that run
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_LT(executed.load(), size_t{10000});
  EXPECT_GT(executed.load(), size_t{0});
}

TEST(ParallelForTest, ExpiredDeadlineRunsNothing) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  std::atomic<size_t> executed{0};
  ParallelOptions opts;
  opts.grain = 1;
  opts.cancel = &token;
  Status st = ParallelFor(100, opts, [&](size_t, size_t, size_t) {
    executed.fetch_add(1);
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(executed.load(), size_t{0});
}

TEST(CancellationTokenTest, CheckIsStickyAndTyped) {
  CancellationToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.Expired());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  CancellationToken deadline;
  deadline.CancelAfter(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(deadline.Expired());
}

// ---------------------------------------------------------------------------
// Serial-vs-parallel equivalence: identical bytes at 1, 2 and 8 threads.

storage::TablePtr MakeMeasurements(size_t rows) {
  auto table = std::make_shared<storage::Table>(storage::Schema({
      {"id", storage::ColumnType::kInt64},
      {"band", storage::ColumnType::kString},
      {"temp", storage::ColumnType::kFloat64},
  }));
  uint64_t state = 12345;
  for (size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    double temp = 250.0 + static_cast<double>(state % 100000) / 1000.0;
    EXPECT_TRUE(table
                    ->AppendRow({Value(static_cast<int64_t>(i)),
                                 Value(std::string(1, 'a' + (i % 7))),
                                 Value(temp)})
                    .ok());
  }
  return table;
}

TEST(EquivalenceTest, SqlScanFilterAndAggregate) {
  GlobalThreadsGuard guard;
  storage::Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("m", MakeMeasurements(20000)).ok());
  relational::SqlEngine sql(&catalog);
  const std::string scan =
      "SELECT id, temp FROM m WHERE temp > 300.0 AND id % 3 = 0 ORDER BY id";
  const std::string agg =
      "SELECT band, count(*) AS n, sum(temp) AS s, avg(temp) AS a, "
      "min(temp) AS lo, max(temp) AS hi FROM m GROUP BY band ORDER BY band";
  ThreadPool::SetGlobalThreads(1);
  auto scan1 = sql.Execute(scan);
  auto agg1 = sql.Execute(agg);
  ASSERT_TRUE(scan1.ok() && agg1.ok());
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    auto scan_n = sql.Execute(scan);
    auto agg_n = sql.Execute(agg);
    ASSERT_TRUE(scan_n.ok() && agg_n.ok());
    EXPECT_EQ(scan_n->ToString(25000), scan1->ToString(25000))
        << "scan differs at " << threads << " threads";
    EXPECT_EQ(agg_n->ToString(25000), agg1->ToString(25000))
        << "aggregate differs at " << threads << " threads";
  }
}

array::ArrayPtr MakeRasterArray(int64_t h, int64_t w) {
  auto arr = array::Array::Create(
      "r", {{"y", 0, h}, {"x", 0, w}},
      {{"v", storage::ColumnType::kFloat64}}, {Value(0.0)});
  EXPECT_TRUE(arr.ok());
  double* data = *(*arr)->MutableDoubles(0);
  uint64_t state = 99;
  for (int64_t i = 0; i < h * w; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    data[i] = static_cast<double>(state % 100000) / 997.0;
  }
  return *arr;
}

TEST(EquivalenceTest, ConvolveTileAggregateAndStats) {
  GlobalThreadsGuard guard;
  array::ArrayPtr raster = MakeRasterArray(160, 128);
  const std::vector<double> kernel = {0, 1, 0, 1, -4, 1, 0, 1, 0};
  ThreadPool::SetGlobalThreads(1);
  auto conv1 = array::Convolve2D(*raster, 0, kernel, 3);
  auto tiles1 = array::TileAggregate2D(*raster, 0, 16, 16, "avg");
  auto stats1 = array::ComputeStats(*raster, 0);
  ASSERT_TRUE(conv1.ok() && tiles1.ok() && stats1.ok());
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    auto conv_n = array::Convolve2D(*raster, 0, kernel, 3);
    auto tiles_n = array::TileAggregate2D(*raster, 0, 16, 16, "avg");
    auto stats_n = array::ComputeStats(*raster, 0);
    ASSERT_TRUE(conv_n.ok() && tiles_n.ok() && stats_n.ok());
    EXPECT_EQ(std::memcmp(*(*conv_n)->Doubles(0), *(*conv1)->Doubles(0),
                          sizeof(double) * (*conv1)->num_cells()),
              0)
        << "convolve differs at " << threads << " threads";
    EXPECT_EQ(std::memcmp(*(*tiles_n)->Doubles(0), *(*tiles1)->Doubles(0),
                          sizeof(double) * (*tiles1)->num_cells()),
              0)
        << "tile aggregate differs at " << threads << " threads";
    EXPECT_EQ(stats_n->mean, stats1->mean);
    EXPECT_EQ(stats_n->stddev, stats1->stddev);
    EXPECT_EQ(stats_n->min, stats1->min);
    EXPECT_EQ(stats_n->max, stats1->max);
  }
}

TEST(EquivalenceTest, KMeansAndFeatureExtraction) {
  GlobalThreadsGuard guard;
  eo::SceneSpec spec;
  spec.width = 128;
  spec.height = 128;
  spec.seed = 11;
  spec.num_fires = 5;
  auto scene = eo::GenerateScene(spec);
  ASSERT_TRUE(scene.ok());

  ThreadPool::SetGlobalThreads(1);
  auto patches1 = mining::CutPatches(*scene, 8);
  ASSERT_TRUE(patches1.ok());
  std::vector<std::vector<double>> data1;
  for (const auto& p : *patches1) data1.push_back(p.features);
  auto km1 = mining::KMeans(data1, 4, 30, 17);
  ASSERT_TRUE(km1.ok());

  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    auto patches_n = mining::CutPatches(*scene, 8);
    ASSERT_TRUE(patches_n.ok());
    ASSERT_EQ(patches_n->size(), patches1->size());
    for (size_t i = 0; i < patches1->size(); ++i) {
      EXPECT_EQ((*patches_n)[i].row, (*patches1)[i].row);
      EXPECT_EQ((*patches_n)[i].col, (*patches1)[i].col);
      EXPECT_EQ((*patches_n)[i].features, (*patches1)[i].features)
          << "patch " << i << " differs at " << threads << " threads";
    }
    std::vector<std::vector<double>> data_n;
    for (const auto& p : *patches_n) data_n.push_back(p.features);
    auto km_n = mining::KMeans(data_n, 4, 30, 17);
    ASSERT_TRUE(km_n.ok());
    EXPECT_EQ(km_n->iterations, km1->iterations);
    EXPECT_EQ(km_n->assignments, km1->assignments);
    EXPECT_EQ(km_n->centroids, km1->centroids);
    EXPECT_EQ(km_n->inertia, km1->inertia);
  }
}

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("exec_batch_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    for (int i = 0; i < 4; ++i) {
      eo::SceneSpec spec;
      spec.width = 64;
      spec.height = 64;
      spec.seed = 100 + i;
      spec.num_fires = 3;
      auto scene = eo::GenerateScene(spec);
      ASSERT_TRUE(scene.ok());
      vault::TerRaster raster = scene->ToTerRaster();
      raster.name = "scene-" + std::to_string(i);
      names_.push_back(raster.name);
      ASSERT_TRUE(
          vault::WriteTer(raster,
                          (dir_ / (raster.name + ".ter")).string())
              .ok());
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  noa::ChainConfig Config() const {
    noa::ChainConfig config;
    config.classifier.kind = noa::ClassifierKind::kContextual;
    return config;
  }
  /// A fresh observatory per run so catalogs do not accumulate.
  Result<noa::ChainResult> RunOnce(const CancellationToken* cancel =
                                       nullptr) {
    core::VirtualEarthObservatory veo;
    auto attached = veo.AttachArchive(dir_.string());
    EXPECT_TRUE(attached.ok());
    return veo.RunFireChainBatch(names_, Config(), cancel);
  }

  fs::path dir_;
  std::vector<std::string> names_;
};

TEST_F(BatchEquivalenceTest, SameProductsAtAnyThreadCount) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(1);
  auto serial = RunOnce();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->product_ids.size(), names_.size());
  EXPECT_TRUE(serial->failures.empty());
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    auto parallel = RunOnce();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->product_ids, serial->product_ids)
        << "product order differs at " << threads << " threads";
    EXPECT_TRUE(parallel->failures.empty());
    ASSERT_EQ(parallel->hotspots.size(), serial->hotspots.size());
    for (size_t i = 0; i < serial->hotspots.size(); ++i) {
      EXPECT_EQ(parallel->hotspots[i].pixel_count,
                serial->hotspots[i].pixel_count);
      EXPECT_EQ(parallel->hotspots[i].confidence,
                serial->hotspots[i].confidence);
    }
    EXPECT_EQ(parallel->sciql, serial->sciql);
  }
}

TEST_F(BatchEquivalenceTest, CancelledBatchRecordsSkippedProducts) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(2);
  CancellationToken token;
  token.Cancel();  // cancelled before the batch starts
  auto batch = RunOnce(&token);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->product_ids.empty());
  ASSERT_EQ(batch->failures.size(), names_.size());
  for (const auto& failure : batch->failures) {
    EXPECT_EQ(failure.status.code(), StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace teleios::exec
