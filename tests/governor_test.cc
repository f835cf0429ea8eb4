// The resource governor: hierarchical memory budgets (exact accounting,
// refusal semantics, OOM fault injection), the admission controller
// (bounded slots, bounded FIFO queue, deadline-aware waits), the circuit
// breaker state machine under an injected clock, retry/deadline
// composition, and the end-to-end overload scenario through the
// observatory facade. Everything here is deterministic on one core: the
// breaker never sleeps (injected clock), admission waits are bounded by
// token deadlines of a few tens of milliseconds, and OOM injection is
// counted, not timed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/observatory.h"
#include "eo/scene.h"
#include "common/cancellation.h"
#include "governor/admission.h"
#include "governor/circuit_breaker.h"
#include "governor/fault_injection.h"
#include "governor/memory_budget.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "io/retry.h"
#include "mining/kmeans.h"
#include "noa/chain.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "server/client.h"
#include "server/server.h"

namespace teleios {
namespace {

namespace stdfs = std::filesystem;
using governor::BudgetCharge;
using governor::BudgetFaultSpec;
using governor::CircuitBreaker;
using governor::CircuitBreakerConfig;
using governor::FaultInjectingBudget;
using governor::MemoryBudget;
using governor::ScopedBudget;

// ---------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------

TEST(MemoryBudgetTest, ReserveReleaseBalancesToZero) {
  MemoryBudget budget("b", 1000);
  ASSERT_TRUE(budget.Reserve(400).ok());
  ASSERT_TRUE(budget.Reserve(600).ok());
  EXPECT_EQ(budget.used(), 1000u);
  budget.Release(400);
  budget.Release(600);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 1000u);
}

TEST(MemoryBudgetTest, RefusalNamesTheBudgetAndChargesNothing) {
  MemoryBudget budget("tiny-root", 100);
  Status refused = budget.Reserve(101);
  ASSERT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("tiny-root"), std::string::npos);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 0u);  // a refusal never inflates the peak
}

TEST(MemoryBudgetTest, OverflowSizedRequestIsRefusedNotWrapped) {
  MemoryBudget budget("b", 1000);
  ASSERT_TRUE(budget.Reserve(500).ok());
  EXPECT_EQ(budget.Reserve(MemoryBudget::kUnlimited).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 500u);
  budget.Release(500);
}

TEST(MemoryBudgetTest, ChildChargesEveryAncestor) {
  MemoryBudget root("root", 1000);
  MemoryBudget query("query", MemoryBudget::kUnlimited, &root);
  ASSERT_TRUE(query.Reserve(300).ok());
  EXPECT_EQ(query.used(), 300u);
  EXPECT_EQ(root.used(), 300u);
  query.Release(300);
  EXPECT_EQ(query.used(), 0u);
  EXPECT_EQ(root.used(), 0u);
}

TEST(MemoryBudgetTest, AncestorRefusalRollsBackTheChild) {
  MemoryBudget root("root", 100);
  MemoryBudget query("query", MemoryBudget::kUnlimited, &root);
  Status refused = query.Reserve(200);
  ASSERT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("root"), std::string::npos);
  // Nothing left charged anywhere, no phantom peak in the child.
  EXPECT_EQ(query.used(), 0u);
  EXPECT_EQ(root.used(), 0u);
  EXPECT_EQ(query.peak(), 0u);
}

TEST(MemoryBudgetTest, ZeroByteReserveIsFree) {
  MemoryBudget budget("b", 0);  // refuses any non-zero request
  EXPECT_TRUE(budget.Reserve(0).ok());
  EXPECT_EQ(budget.Reserve(1).code(), StatusCode::kResourceExhausted);
}

TEST(MemoryBudgetTest, RootGaugesFollowTheProcessBudgetOnly) {
  MemoryBudget& root = governor::ProcessBudget();
  const obs::Gauge* used = obs::MetricsRegistry::Global().GetGauge(
      "teleios_governor_budget_used_bytes");
  const obs::Gauge* peak = obs::MetricsRegistry::Global().GetGauge(
      "teleios_governor_budget_peak_bytes");
  auto expect_root = [&](const char* after) {
    EXPECT_EQ(used->value(), static_cast<double>(root.used())) << after;
    EXPECT_EQ(peak->value(), static_cast<double>(root.peak())) << after;
  };
  {
    auto charge = governor::TryCharge(&root, 1u << 20, "gauge test");
    ASSERT_TRUE(charge.ok());
    expect_root("a root charge");
  }
  expect_root("a root release");
  // Another budget without a parent, as a WAL commit's is, reports
  // nothing.
  MemoryBudget other("other-root", MemoryBudget::kUnlimited);
  {
    auto charge = governor::TryCharge(&other, 64, "gauge test");
    ASSERT_TRUE(charge.ok());
    expect_root("a charge on another root");
  }
  expect_root("a release on another root");
  const stdfs::path dir = stdfs::temp_directory_path() /
                          ("gauge_commit_" + std::to_string(::getpid()));
  stdfs::remove_all(dir);
  {
    core::VirtualEarthObservatory live;
    ASSERT_TRUE(live.Open(dir.string()).ok());
    ASSERT_TRUE(live.StSparqlUpdate("PREFIX ex: <http://example.org/> "
                                    "INSERT DATA { ex:a ex:p ex:b . "
                                    "ex:c ex:p ex:d }")
                    .ok());
    auto moved = live.StSparqlUpdate(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?s ex:p ?o } INSERT { ?s ex:q ?o } WHERE { ?s ex:p ?o }");
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(*moved, 4u);
    expect_root("a durable DELETE/INSERT WHERE");
  }
  stdfs::remove_all(dir);
}

TEST(BudgetChargeTest, RaiiReleasesOnScopeExitAndMoves) {
  MemoryBudget budget("b", 1000);
  {
    auto charge = governor::TryCharge(&budget, 128, "test buffer");
    ASSERT_TRUE(charge.ok());
    EXPECT_EQ(budget.used(), 128u);
    BudgetCharge moved = std::move(*charge);
    EXPECT_EQ(budget.used(), 128u);  // moving does not double-release
    moved.reset();
    EXPECT_EQ(budget.used(), 0u);
    moved.reset();  // idempotent
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(BudgetChargeTest, TryChargePrefixesTheRefusalWithWhat) {
  MemoryBudget budget("b", 10);
  auto charge = governor::TryCharge(&budget, 100, "sort selection");
  ASSERT_FALSE(charge.ok());
  EXPECT_EQ(charge.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(charge.status().message().find("sort selection"),
            std::string::npos);
}

TEST(ScopedBudgetTest, OverridesAndRestoresTheThreadBudget) {
  MemoryBudget* default_budget = governor::CurrentBudget();
  EXPECT_EQ(default_budget, &governor::ProcessBudget());
  MemoryBudget mine("mine", MemoryBudget::kUnlimited);
  {
    ScopedBudget scope(&mine);
    EXPECT_EQ(governor::CurrentBudget(), &mine);
    auto charge = governor::ChargeCurrent(64, "scratch");
    ASSERT_TRUE(charge.ok());
    EXPECT_EQ(mine.used(), 64u);
  }
  EXPECT_EQ(governor::CurrentBudget(), default_budget);
  EXPECT_EQ(mine.used(), 0u);
}

// ---------------------------------------------------------------------
// FaultInjectingBudget
// ---------------------------------------------------------------------

TEST(FaultInjectingBudgetTest, InjectsAtTheKthReservation) {
  MemoryBudget base("base", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&base);
  BudgetFaultSpec spec;
  spec.inject_at = 2;
  injector.Arm(spec);
  ASSERT_TRUE(injector.Reserve(10).ok());
  Status second = injector.Reserve(10);
  ASSERT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.message().find("injected allocation failure"),
            std::string::npos);
  EXPECT_EQ(injector.reservations(), 2u);
  EXPECT_EQ(injector.injected(), 1u);
  // The refused reservation charged nothing; the accepted one did.
  EXPECT_EQ(base.used(), 10u);
  injector.Release(10);
  EXPECT_EQ(base.used(), 0u);
  EXPECT_EQ(injector.used(), 0u);
}

TEST(FaultInjectingBudgetTest, EveryNRepeatsAndZeroBytesAreNotCounted) {
  MemoryBudget base("base", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&base);
  BudgetFaultSpec spec;
  spec.inject_at = 1;
  spec.every_n = 2;
  injector.Arm(spec);
  EXPECT_TRUE(injector.Reserve(0).ok());  // not counted, not injected
  EXPECT_FALSE(injector.Reserve(8).ok());  // #1 injected
  EXPECT_TRUE(injector.Reserve(8).ok());   // #2
  EXPECT_FALSE(injector.Reserve(8).ok());  // #3 = 1 + 2 injected
  EXPECT_TRUE(injector.Reserve(8).ok());   // #4
  EXPECT_FALSE(injector.Reserve(8).ok());  // #5 injected
  EXPECT_EQ(injector.injected(), 3u);
  injector.Disarm();
  EXPECT_TRUE(injector.Reserve(8).ok());
  injector.Release(24);
  EXPECT_EQ(base.used(), 0u);
}

TEST(FaultInjectingBudgetTest, ConcurrentReservationsFaultExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr int kReservationsPerThread = 500;
  MemoryBudget base("base", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&base);
  BudgetFaultSpec spec;
  spec.inject_at = 1234;
  injector.Arm(spec);
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReservationsPerThread; ++i) {
        if (injector.Reserve(1).ok()) {
          injector.Release(1);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(injector.reservations(),
            uint64_t{kThreads * kReservationsPerThread});
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(refused.load(), 1);
  EXPECT_EQ(base.used(), 0u);
}

// ---------------------------------------------------------------------
// CircuitBreaker (injected clock; no sleeping)
// ---------------------------------------------------------------------

class BreakerTest : public ::testing::Test {
 protected:
  BreakerTest() : breaker_("test-breaker", Config()) {
    now_ = std::chrono::steady_clock::now();
    breaker_.SetClockForTest([this] { return now_; });
  }

  static CircuitBreakerConfig Config() {
    CircuitBreakerConfig config;
    config.failure_threshold = 2;
    config.open_duration = std::chrono::milliseconds(100);
    config.half_open_successes = 1;
    return config;
  }

  void Advance(int ms) { now_ += std::chrono::milliseconds(ms); }

  std::chrono::steady_clock::time_point now_;
  CircuitBreaker breaker_;
};

TEST_F(BreakerTest, TripsAfterConsecutiveFailuresAndSheds) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker_.trips(), 1u);
  Status shed = breaker_.Admit();
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("test-breaker"), std::string::npos);
}

TEST_F(BreakerTest, SuccessResetsTheConsecutiveCount) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordSuccess();  // streak broken
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker_.trips(), 0u);
}

TEST_F(BreakerTest, HalfOpenAdmitsOneProbeThenCloses) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();  // open
  Advance(99);
  EXPECT_EQ(breaker_.Admit().code(), StatusCode::kUnavailable);
  Advance(2);  // past the cool-down
  ASSERT_TRUE(breaker_.Admit().ok());  // the probe
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kHalfOpen);
  // A second caller while the probe is in flight is shed.
  EXPECT_EQ(breaker_.Admit().code(), StatusCode::kUnavailable);
  breaker_.RecordSuccess();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.Admit().ok());
  breaker_.RecordSuccess();
}

TEST_F(BreakerTest, FailedProbeReopensForAnotherCoolDown) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  Advance(101);
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();  // probe failed
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker_.trips(), 2u);
  EXPECT_EQ(breaker_.Admit().code(), StatusCode::kUnavailable);
}

TEST_F(BreakerTest, RunOnlyCountsInfrastructureFailures) {
  // NotFound is the caller's problem, not the dependency's: it must
  // pass through unchanged and never trip the breaker.
  for (int i = 0; i < 5; ++i) {
    Status s = breaker_.Run([] { return Status::NotFound("no such raster"); });
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  // Two I/O errors trip it.
  (void)breaker_.Run([] { return Status::IoError("disk"); });
  (void)breaker_.Run([] { return Status::IoError("disk"); });
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  // Shed calls never invoke the function.
  bool ran = false;
  Status shed = breaker_.Run([&] {
    ran = true;
    return Status::OK();
  });
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ran);
}

TEST_F(BreakerTest, ReconfigureResetsToClosed) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  breaker_.Reconfigure(Config());
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.Admit().ok());
  breaker_.RecordSuccess();
}

// ---------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------

governor::AdmissionConfig AdmitConfig(int max_concurrent, int max_queue,
                                      int max_wait_ms) {
  governor::AdmissionConfig config;
  config.max_concurrent = max_concurrent;
  config.max_queue = max_queue;
  config.max_wait = std::chrono::milliseconds(max_wait_ms);
  return config;
}

TEST(AdmissionTest, TicketReleasesTheSlot) {
  governor::AdmissionController admission(AdmitConfig(1, 0, 0));
  auto first = admission.Admit(nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(admission.running(), 1);
  // Slot taken, queue capacity zero: shed instantly.
  auto second = admission.Admit(nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  first->reset();
  EXPECT_EQ(admission.running(), 0);
  auto third = admission.Admit(nullptr);
  EXPECT_TRUE(third.ok());
}

TEST(AdmissionTest, ZeroMaxWaitTimesOutWithoutStrandingTheQueue) {
  governor::AdmissionController admission(AdmitConfig(1, 4, 0));
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  auto timed_out = admission.Admit(nullptr);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(timed_out.status().message().find("timed out"),
            std::string::npos);
  // The give-up waiter removed itself; nothing is left queued.
  EXPECT_EQ(admission.queued(), 0);
}

TEST(AdmissionTest, CancelledTokenReturnsItsStatus) {
  governor::AdmissionController admission(AdmitConfig(1, 4, 10000));
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancellationToken token;
  token.Cancel();
  auto cancelled = admission.Admit(&token);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_NE(cancelled.status().message().find("abandoned admission queue"),
            std::string::npos);
  EXPECT_EQ(admission.queued(), 0);
}

TEST(AdmissionTest, DeadlineBoundsTheQueueWait) {
  governor::AdmissionController admission(AdmitConfig(1, 4, 10000));
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(30));
  auto start = std::chrono::steady_clock::now();
  auto expired = admission.Admit(&token);
  auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The wait ended near the 30ms deadline, nowhere near max_wait=10s.
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(admission.queued(), 0);
}

// ---------------------------------------------------------------------
// RetryPolicy + CancellationToken (the PR's retry/deadline fix)
// ---------------------------------------------------------------------

TEST(RetryDeadlineTest, ExpiredTokenStopsRetriesAndKeepsTheLastError) {
  CancellationToken token;
  token.CancelAfter(std::chrono::nanoseconds(0));  // already expired
  io::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.cancel = &token;
  int calls = 0;
  Status s = io::WithRetry(policy, "flaky op", [&] {
    ++calls;
    return Status::IoError("disk hiccup");
  });
  EXPECT_EQ(calls, 1);  // no retry once the budget is spent
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // The cause of the final failed attempt is not lost.
  EXPECT_NE(s.message().find("disk hiccup"), std::string::npos);
  EXPECT_NE(s.message().find("last error"), std::string::npos);
}

TEST(RetryDeadlineTest, BackoffNeverOvershootsTheDeadline) {
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(50));
  io::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 60000;  // sleeping would blow the deadline
  policy.cancel = &token;
  int calls = 0;
  auto start = std::chrono::steady_clock::now();
  Status s = io::WithRetry(policy, "slow-retry op", [&] {
    ++calls;
    return Status::IoError("transient");
  });
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("overshoot"), std::string::npos);
  // It refused to sleep rather than discovering the deadline afterwards.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(RetryDeadlineTest, CancelledTokenStopsBetweenAttempts) {
  CancellationToken token;
  io::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.cancel = &token;
  int calls = 0;
  Status s = io::WithRetry(policy, "op", [&] {
    ++calls;
    token.Cancel();  // cancelled mid-flight after the first attempt
    return Status::IoError("fault");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(RetryDeadlineTest, TokenWithoutDeadlineDoesNotLimitRetries) {
  CancellationToken token;  // live, no deadline
  io::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.cancel = &token;
  int calls = 0;
  Status s = io::WithRetry(policy, "op", [&] {
    ++calls;
    return Status::IoError("persistent");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------
// k-means under a budget (mining tier)
// ---------------------------------------------------------------------

TEST(GovernedEngineTest, KMeansRespectsTheThreadBudget) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back({static_cast<double>(i % 17), static_cast<double>(i % 5),
                    static_cast<double>(i)});
  }
  MemoryBudget tiny("tiny", 16);
  {
    ScopedBudget scope(&tiny);
    auto refused = mining::KMeans(data, 3);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(tiny.used(), 0u);  // balance survives the error path
  MemoryBudget roomy("roomy", 16u << 20);
  {
    ScopedBudget scope(&roomy);
    auto fits = mining::KMeans(data, 3);
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits->centroids.size(), 3u);
  }
  EXPECT_EQ(roomy.used(), 0u);
}

// ---------------------------------------------------------------------
// Observatory facade: budgets, admission, OOM sweeps, overload E2E
// ---------------------------------------------------------------------

class GovernedObservatoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("governor_test_" + std::to_string(::getpid()));
    stdfs::create_directories(dir_);
    eo::SceneSpec spec;
    spec.width = 64;
    spec.height = 64;
    spec.num_fires = 3;
    for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
      spec.name = name;
      spec.seed += 13;
      auto scene = eo::GenerateScene(spec);
      ASSERT_TRUE(scene.ok());
      ASSERT_TRUE(vault::WriteTer(scene->ToTerRaster(),
                                  (dir_ / (std::string(name) + ".ter"))
                                      .string())
                      .ok());
    }
    ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  static noa::ChainConfig FireConfig() {
    noa::ChainConfig config;
    config.classifier.kind = noa::ClassifierKind::kThreshold;
    config.classifier.threshold_kelvin = 315.0;
    return config;
  }

  stdfs::path dir_;
  core::VirtualEarthObservatory veo_;
};

TEST_F(GovernedObservatoryTest, QueryFailsCleanlyUnderATinyBudget) {
  MemoryBudget tiny("tiny-root", 16);
  Result<storage::Table> starved = [&] {
    ScopedBudget scope(&tiny);
    return veo_.Sql("SELECT satellite, count(*) AS n FROM vault_rasters "
                    "GROUP BY satellite");
  }();
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.used(), 0u);
  // The same statement succeeds with room, and the governor leaves no
  // residue: an ungoverned rerun gives the identical table.
  MemoryBudget roomy("roomy-root", 64u << 20);
  Result<storage::Table> governed = [&] {
    ScopedBudget scope(&roomy);
    return veo_.Sql("SELECT satellite, count(*) AS n FROM vault_rasters "
                    "GROUP BY satellite");
  }();
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(roomy.used(), 0u);
  auto ungoverned = veo_.Sql(
      "SELECT satellite, count(*) AS n FROM vault_rasters "
      "GROUP BY satellite");
  ASSERT_TRUE(ungoverned.ok());
  EXPECT_EQ(governed->ToString(1000), ungoverned->ToString(1000));
}

TEST_F(GovernedObservatoryTest, OomInjectionSweepNeverCrashesOrLeaks) {
  ASSERT_TRUE(veo_.RegisterRaster("alpha").ok());
  const std::string query =
      "SELECT count(*) AS n FROM alpha WHERE LANDMASK > 0.5";
  MemoryBudget root("sweep-root", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&root);
  ScopedBudget scope(&injector);

  // Baseline: disarmed pass-through; learn the reservation count.
  auto baseline = veo_.SciQl(query);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  uint64_t reservations = injector.reservations();
  ASSERT_GT(reservations, 0u) << "query must exercise budget charges";
  std::cout << "[sweep] " << reservations << " reservations\n";

  // Refuse the k-th reservation for every k: each run must fail with a
  // clean kResourceExhausted (no crash, no bad_alloc escape) and leave
  // the budget balanced at zero.
  for (uint64_t k = 1; k <= reservations; ++k) {
    BudgetFaultSpec spec;
    spec.inject_at = k;
    injector.Arm(spec);
    auto starved = veo_.SciQl(query);
    ASSERT_FALSE(starved.ok()) << "k=" << k;
    EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted)
        << "k=" << k << ": " << starved.status().ToString();
    EXPECT_EQ(root.used(), 0u) << "k=" << k;
    EXPECT_EQ(injector.used(), 0u) << "k=" << k;
  }

  // Disarmed again the result is bit-identical to the baseline.
  injector.Disarm();
  auto recovered = veo_.SciQl(query);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->ToString(1000), baseline->ToString(1000));
}

TEST_F(GovernedObservatoryTest, CancelledCallerStopsASciQlUpdate) {
  ASSERT_TRUE(veo_.SciQl("CREATE ARRAY img (y INT DIMENSION [0:256], "
                         "x INT DIMENSION [0:256], v DOUBLE DEFAULT 1.0)")
                  .ok());
  auto checksum = [&] {
    auto arr = veo_.sciql().GetArray("img");
    EXPECT_TRUE(arr.ok());
    double sum = 0;
    for (size_t i = 0; i < (*arr)->num_cells(); ++i) {
      sum += (*arr)->GetLinear(i, 0).AsFloat64() * static_cast<double>(i);
    }
    return sum;
  };
  const double before = checksum();
  CancellationToken token;
  token.Cancel();
  auto update = veo_.SciQl("UPDATE img SET v = v + x", &token);
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(checksum(), before);
  // Without the token the same statement runs.
  ASSERT_TRUE(veo_.SciQl("UPDATE img SET v = v + x").ok());
  EXPECT_NE(checksum(), before);
}

TEST_F(GovernedObservatoryTest, AdmissionShedsWhenSaturated) {
  veo_.SetAdmissionConfig(AdmitConfig(1, 0, 0));
  auto held = veo_.admission().Admit(nullptr);
  ASSERT_TRUE(held.ok());
  auto shed = veo_.Sql("SELECT name FROM vault_rasters");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  held->reset();
  auto admitted = veo_.Sql("SELECT name FROM vault_rasters");
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
  veo_.SetAdmissionConfig(governor::AdmissionConfig{});
}

TEST_F(GovernedObservatoryTest, AdmissionHonoursTheCallersDeadline) {
  veo_.SetAdmissionConfig(AdmitConfig(1, 4, 10000));
  auto held = veo_.admission().Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(30));
  auto expired = veo_.Sql("SELECT name FROM vault_rasters", &token);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(veo_.admission().queued(), 0);
  held->reset();
  veo_.SetAdmissionConfig(governor::AdmissionConfig{});
}

TEST_F(GovernedObservatoryTest, ProfileShowsTheAdmitSpan) {
  auto profile = veo_.Sql("PROFILE SELECT name FROM vault_rasters");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::set<std::string> spans;
  for (size_t r = 0; r < profile->num_rows(); ++r) {
    spans.insert(profile->Get(r, 0).AsString());
  }
  EXPECT_TRUE(spans.count("governor.admit"))
      << "PROFILE output must surface queue wait";
}

TEST_F(GovernedObservatoryTest, GovernorMetricsAreExposed) {
  ASSERT_TRUE(veo_.Sql("SELECT name FROM vault_rasters").ok());
  std::string text = veo_.MetricsText();
  EXPECT_NE(text.find("teleios_governor_admission_admitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_governor_query_peak_bytes"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_governor_query_leak_bytes"),
            std::string::npos);
}

TEST_F(GovernedObservatoryTest, VaultIngestBreakerTripsAndRecovers) {
  auto now = std::chrono::steady_clock::now();
  veo_.vault().ingest_breaker().SetClockForTest([&now] { return now; });

  io::PosixFileSystem posix;
  io::FaultInjectingFileSystem faulty(&posix);
  io::ScopedFileSystem fs_scope(&faulty);
  io::FaultSpec spec;
  spec.kind = io::FaultKind::kIoError;
  spec.inject_at = 1;
  spec.every_n = 1;  // every operation fails
  faulty.Arm(spec);

  // Three distinct rasters fail ingestion (each quarantined after its
  // retries); the third consecutive infrastructure failure trips the
  // breaker, so the fourth is shed before doing any I/O.
  for (const char* name : {"alpha", "beta", "gamma"}) {
    auto r = veo_.vault().GetRasterArray(name);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << name;
  }
  EXPECT_EQ(veo_.vault().ingest_breaker().state(),
            CircuitBreaker::State::kOpen);
  uint64_t ops_before = faulty.ops();
  auto shed = veo_.vault().GetRasterArray("delta");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(faulty.ops(), ops_before);  // shed without touching the disk

  // Recovery: the fault clears, the cool-down elapses, the half-open
  // probe succeeds and ingestion works again.
  faulty.Disarm();
  now += std::chrono::milliseconds(1000);
  auto healed = veo_.vault().GetRasterArray("delta");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(veo_.vault().ingest_breaker().state(),
            CircuitBreaker::State::kClosed);
  veo_.vault().ingest_breaker().SetClockForTest(nullptr);
}

TEST_F(GovernedObservatoryTest, ExportBreakerShedsAfterPersistentFailures) {
  noa::ProcessingChain chain(&veo_.vault(), &veo_.sciql(), &veo_.strabon(),
                             &veo_.catalog());
  auto now = std::chrono::steady_clock::now();
  chain.export_breaker().SetClockForTest([&now] { return now; });

  noa::ChainConfig config = FireConfig();
  // A file where the output directory should be: every export fails.
  stdfs::path blocker = dir_ / "not_a_directory";
  ASSERT_TRUE(io::GetFileSystem()->WriteFileAtomic(blocker.string(), "x").ok());
  config.output_dir = (blocker / "out").string();

  auto batch = chain.RunBatch({"alpha", "beta", "gamma", "delta"}, config);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->failures.size(), 4u);
  EXPECT_TRUE(batch->product_ids.empty());
  EXPECT_GE(chain.export_breaker().trips(), 1u);
  // Once the breaker tripped, later products shed with kUnavailable
  // instead of burning a retry budget each.
  bool saw_shed = false;
  for (const noa::ChainFailure& failure : batch->failures) {
    EXPECT_FALSE(failure.status.ok());
    saw_shed = saw_shed ||
               failure.status.code() == StatusCode::kUnavailable;
  }
  EXPECT_TRUE(saw_shed);

  // Recovery: cool-down elapses, a valid output directory, and the next
  // run (different classifier => different product ids) fully succeeds.
  now += std::chrono::milliseconds(1000);
  noa::ChainConfig good = FireConfig();
  good.classifier.kind = noa::ClassifierKind::kContextual;
  good.output_dir = (dir_ / "products").string();
  ASSERT_TRUE(io::GetFileSystem()->CreateDir(good.output_dir).ok());
  auto recovered = chain.RunBatch({"alpha", "beta"}, good);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->failures.empty());
  EXPECT_EQ(recovered->product_ids.size(), 2u);
  EXPECT_EQ(chain.export_breaker().state(), CircuitBreaker::State::kClosed);
}

TEST_F(GovernedObservatoryTest, OverloadEndToEnd) {
  // Acceptance scenario: a batch plus queries against an undersized
  // budget shed cleanly (kResourceExhausted / kUnavailable, zero
  // crashes), the budget balances to zero, and once the budget is
  // raised the results are identical to an ungoverned run.
  MemoryBudget starved_root("starved", 1024);
  {
    ScopedBudget scope(&starved_root);
    auto batch =
        veo_.RunFireChainBatch({"alpha", "beta", "gamma"}, FireConfig());
    // Either the whole batch was refused or every product failed; both
    // are clean sheds, not crashes.
    if (batch.ok()) {
      EXPECT_EQ(batch->failures.size(), 3u);
      for (const noa::ChainFailure& failure : batch->failures) {
        EXPECT_EQ(failure.status.code(), StatusCode::kResourceExhausted)
            << failure.status.ToString();
      }
    } else {
      EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
    }
    auto q = veo_.Sql("SELECT satellite, count(*) AS n FROM vault_rasters "
                      "GROUP BY satellite");
    EXPECT_TRUE(q.ok() ||
                q.status().code() == StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(starved_root.used(), 0u);

  // Raise the budget: the identical batch now fully succeeds...
  MemoryBudget roomy_root("roomy", 256u << 20);
  Result<noa::ChainResult> governed = [&] {
    ScopedBudget scope(&roomy_root);
    return veo_.RunFireChainBatch({"alpha", "beta", "gamma"}, FireConfig());
  }();
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_TRUE(governed->failures.empty());
  ASSERT_EQ(governed->product_ids.size(), 3u);
  EXPECT_EQ(roomy_root.used(), 0u);
  EXPECT_GT(roomy_root.peak(), 0u);

  // ... and matches an ungoverned run of the same inputs on a fresh
  // observatory, product for product and hotspot for hotspot.
  core::VirtualEarthObservatory fresh;
  ASSERT_TRUE(fresh.AttachArchive(dir_.string()).ok());
  auto baseline =
      fresh.RunFireChainBatch({"alpha", "beta", "gamma"}, FireConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(governed->product_ids, baseline->product_ids);
  ASSERT_EQ(governed->hotspots.size(), baseline->hotspots.size());
  for (size_t i = 0; i < governed->hotspots.size(); ++i) {
    EXPECT_EQ(governed->hotspots[i].confidence,
              baseline->hotspots[i].confidence)
        << "hotspot " << i;
  }
}

// ---------------------------------------------------------------------
// SQL DISTINCT and stSPARQL under the governor
// ---------------------------------------------------------------------

TEST(GovernedEngineTest, SqlDistinctIsChargedToTheBudget) {
  core::VirtualEarthObservatory veo;
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"id", storage::ColumnType::kInt64}}));
  for (int64_t i = 0; i < 200000; ++i) table->column(0).AppendInt64(i);
  ASSERT_TRUE(veo.catalog().CreateTable("t", table).ok());
  MemoryBudget budget("distinct-256k", 256u << 10);
  Result<storage::Table> refused = [&] {
    ScopedBudget scope(&budget);
    return veo.Sql("SELECT DISTINCT id FROM t");
  }();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  EXPECT_EQ(budget.used(), 0u);
  auto unlimited = veo.Sql("SELECT DISTINCT id FROM t");
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_EQ(unlimited->num_rows(), 200000u);
}

/// A table of `rows` rows: id = 0, 1, ... and v = id % 1000.
std::shared_ptr<storage::Table> IdTable(int64_t rows) {
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"id", storage::ColumnType::kInt64},
                       {"v", storage::ColumnType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendInt64(i % 1000);
  }
  return table;
}

/// Every row of `table`, rendered.
std::string Rendered(core::VirtualEarthObservatory& veo,
                     const std::string& table) {
  auto all = veo.Sql("SELECT * FROM " + table);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  return all.ok() ? all->ToString(1u << 30) : "";
}

const char* const kSqlWrites[] = {"UPDATE t SET v = v + 1 WHERE id > 5",
                                  "DELETE FROM t WHERE v > 500"};

TEST(GovernedEngineTest, SqlWritesStopOnACancelledToken) {
  core::VirtualEarthObservatory veo;
  ASSERT_TRUE(veo.catalog().CreateTable("t", IdTable(20000)).ok());
  const std::string before = Rendered(veo, "t");
  CancellationToken token;
  token.Cancel();
  for (const char* write : kSqlWrites) {
    auto stopped = veo.Sql(write, &token);
    ASSERT_FALSE(stopped.ok()) << write;
    EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled) << write;
  }
  EXPECT_EQ(Rendered(veo, "t"), before);
}

TEST(GovernedEngineTest, SqlWritesAreChargedToTheBudget) {
  core::VirtualEarthObservatory veo;
  ASSERT_TRUE(veo.catalog().CreateTable("t", IdTable(20000)).ok());
  const std::string before = Rendered(veo, "t");
  MemoryBudget kib("sql-writes-1k", 1024);
  for (const char* write : kSqlWrites) {
    Result<storage::Table> refused = [&] {
      ScopedBudget scope(&kib);
      return veo.Sql(write);
    }();
    ASSERT_FALSE(refused.ok()) << write;
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
        << refused.status().ToString();
    EXPECT_EQ(kib.used(), 0u) << write;
  }
  EXPECT_EQ(Rendered(veo, "t"), before);
  // With room the same writes apply.
  auto updated = veo.Sql(kSqlWrites[0]);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->Get(0, 0), Value(int64_t{19994}));
  auto deleted = veo.Sql(kSqlWrites[1]);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->Get(0, 0), Value(int64_t{10000}));
}

TEST(GovernedEngineTest, KillQueryStopsASqlUpdate) {
  core::VirtualEarthObservatory veo;
  ASSERT_TRUE(veo.catalog().CreateTable("t", IdTable(1 << 20)).ok());
  const std::string before = Rendered(veo, "t");
  // The WHERE runs interpreted, row by row, polling at morsel boundaries;
  // SET v = v leaves every finished run's table as it was, so the worker
  // repeats the statement until a kill lands in one.
  const std::string slow =
      "UPDATE t SET v = v WHERE sqrt(abs(id * 37 - v)) + ln(id + 2) > 6000";
  Result<storage::Table> victim = Status::Internal("never ran");
  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int attempt = 0; attempt < 50; ++attempt) {
      victim = veo.Sql(slow);
      if (!victim.ok()) break;
    }
    done = true;
  });
  while (!done) {
    auto active = veo.Sql("SELECT id, statement, state FROM sys.queries");
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    for (size_t r = 0; r < active->num_rows(); ++r) {
      if (active->Get(r, 1).AsString() == slow &&
          active->Get(r, 2).AsString() == "running") {
        (void)veo.KillQuery(static_cast<uint64_t>(active->Get(r, 0).AsInt64()));
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  worker.join();
  ASSERT_FALSE(victim.ok()) << "every run finished before a kill landed";
  EXPECT_EQ(victim.status().code(), StatusCode::kCancelled)
      << victim.status().ToString();
  EXPECT_EQ(Rendered(veo, "t"), before);
}

TEST(GovernedEngineTest, LoggedSqlWritesApplyUnderATinySessionBudget) {
  // Once the WAL has synced a statement, the live catalog must apply it:
  // a budget refusal there would leave the log holding a write the live
  // tables never made.
  const stdfs::path dir = stdfs::temp_directory_path() /
                          ("sql_commit_" + std::to_string(::getpid()));
  const stdfs::path copy = dir.string() + "_copy";
  stdfs::remove_all(dir);
  stdfs::remove_all(copy);
  core::VirtualEarthObservatory live;
  core::DurabilityOptions options;
  options.checkpoint_bytes = 0;
  ASSERT_TRUE(live.Open(dir.string(), options).ok());
  ASSERT_TRUE(live.Sql("CREATE TABLE t (id INT, v DOUBLE, s VARCHAR)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 300; ++i) {
    insert += (i ? ", (" : "(") + std::to_string(i) + ", " +
              std::to_string(i) + ".5, 'r" + std::to_string(i % 7) + "')";
  }
  ASSERT_TRUE(live.Sql(insert).ok());
  MemoryBudget tiny("tiny", 16);
  {
    ScopedBudget scope(&tiny);
    auto updated =
        live.Sql("UPDATE t SET v = v * 2, s = 'upd' WHERE id % 3 = 0");
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->Get(0, 0), Value(int64_t{100}));
    auto deleted = live.Sql("DELETE FROM t WHERE id >= 250");
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(deleted->Get(0, 0), Value(int64_t{50}));
  }
  EXPECT_EQ(tiny.used(), 0u);

  stdfs::copy(dir, copy, stdfs::copy_options::recursive);
  core::VirtualEarthObservatory reopened;
  ASSERT_TRUE(reopened.Open(copy.string()).ok());
  EXPECT_EQ(Rendered(reopened, "t"), Rendered(live, "t"));
  stdfs::remove_all(copy);
  stdfs::remove_all(dir);
}

/// A store of 1,500 `ex:p` triples and a query whose two patterns share no
/// variable: its basic graph pattern builds 1,500 x 1,500 solutions before
/// LIMIT keeps three. Runs that mean to finish use `roomy_`, a budget of
/// their own, so a tight process budget starves only the refusal tests.
class StSparqlGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string ttl = "@prefix ex: <http://example.org/> .\n";
    for (int i = 0; i < 1500; ++i) {
      ttl += "ex:a" + std::to_string(i) + " ex:p ex:b" + std::to_string(i) +
             " .\n";
    }
    ASSERT_TRUE(veo_.LoadLinkedData(ttl).ok());
  }

  static constexpr const char* kCartesian =
      "PREFIX ex: <http://example.org/> "
      "SELECT ?a ?d WHERE { ?a ex:p ?b . ?c ex:p ?d } LIMIT 3";

  void TearDown() override {
    if (server_ != nullptr) {
      ASSERT_TRUE(server_->Shutdown().ok());
    }
  }

  /// A wire client of a server over veo_ (started on first use), for the
  /// stops a client sends: a statement deadline and a CANCEL frame.
  server::Client Connect() {
    if (server_ == nullptr) {
      server::ServerConfig config;
      config.port = 0;
      server_ = std::make_unique<server::TeleiosServer>(&veo_, config);
      EXPECT_TRUE(server_->Start().ok());
    }
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  MemoryBudget roomy_{"stsparql-roomy", MemoryBudget::kUnlimited};
  core::VirtualEarthObservatory veo_;
  std::unique_ptr<server::TeleiosServer> server_;
};

TEST_F(StSparqlGovernanceTest, CancelledTokenStopsTheQuery) {
  CancellationToken token;
  token.Cancel();
  auto stopped = veo_.StSparql(kCartesian, &token);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);
  ScopedBudget scope(&roomy_);
  auto answered = veo_.StSparql(kCartesian);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->num_rows(), 3u);
}

TEST_F(StSparqlGovernanceTest, ExpiredDeadlineStopsTheQuery) {
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now());
  auto stopped = veo_.StSparql(kCartesian, &token);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(StSparqlGovernanceTest, KillQueryStopsTheQueryFromAnotherThread) {
  Result<storage::Table> victim = Status::Internal("never ran");
  std::atomic<bool> done{false};
  std::thread worker([&] {
    ScopedBudget scope(&roomy_);
    victim = veo_.StSparql(kCartesian);
    done = true;
  });
  bool killed = false;
  while (!done && !killed) {
    auto active = veo_.Sql("SELECT id, statement, state FROM sys.queries");
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    for (size_t r = 0; r < active->num_rows() && !killed; ++r) {
      if (active->Get(r, 1).AsString().find("ex:p ?d") != std::string::npos &&
          active->Get(r, 2).AsString() == "running") {
        killed = veo_
                     .KillQuery(
                         static_cast<uint64_t>(active->Get(r, 0).AsInt64()))
                     .ok();
      }
    }
    if (!killed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  worker.join();
  ASSERT_TRUE(killed) << "the query finished before it could be killed";
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kCancelled)
      << victim.status().ToString();
}

TEST_F(StSparqlGovernanceTest, TinyBudgetRefusesTheQuery) {
  MemoryBudget budget("stsparql-1mib", 1u << 20);
  Result<storage::Table> refused = [&] {
    ScopedBudget scope(&budget);
    return veo_.StSparql(kCartesian);
  }();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(budget.peak(), 0u);
}

TEST_F(StSparqlGovernanceTest, OomInjectionSweepNeverCrashesOrLeaks) {
  // Headline-shaped: a BGP with a pushed FILTER, an R-tree spatial join,
  // DISTINCT and ORDER BY.
  std::string ttl =
      "@prefix ex: <http://example.org/> .\n"
      "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n";
  for (int i = 0; i < 60; ++i) {
    ttl += "ex:h" + std::to_string(i) + " a ex:Hotspot ; ex:conf " +
           std::to_string(i % 10) + " ; ex:geom \"POINT (" +
           std::to_string(i % 12) + " " + std::to_string(i / 12) +
           ")\"^^strdf:WKT .\n";
  }
  for (int i = 0; i < 8; ++i) {
    ttl += "ex:site" + std::to_string(i) + " a ex:Site ; ex:geom \"POINT (" +
           std::to_string(i * 1.5) + " 2)\"^^strdf:WKT .\n";
  }
  ASSERT_TRUE(veo_.LoadLinkedData(ttl).ok());
  const std::string query =
      "PREFIX ex: <http://example.org/> "
      "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#> "
      "SELECT DISTINCT ?site ?h WHERE { "
      "?h a ex:Hotspot ; ex:conf ?c ; ex:geom ?hg . "
      "?site a ex:Site ; ex:geom ?sg . "
      "FILTER(?c > 2) FILTER(strdf:distance(?hg, ?sg) < 2) } "
      "ORDER BY ?site ?h";
  MemoryBudget root("sweep-root", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&root);
  ScopedBudget scope(&injector);

  auto baseline = veo_.StSparql(query);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->num_rows(), 0u);
  uint64_t reservations = injector.reservations();
  ASSERT_GT(reservations, 0u) << "query must exercise budget charges";
  std::cout << "[sweep] " << reservations << " reservations\n";

  for (uint64_t k = 1; k <= reservations; ++k) {
    BudgetFaultSpec spec;
    spec.inject_at = k;
    injector.Arm(spec);
    auto starved = veo_.StSparql(query);
    ASSERT_FALSE(starved.ok()) << "k=" << k;
    EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted)
        << "k=" << k << ": " << starved.status().ToString();
    EXPECT_EQ(root.used(), 0u) << "k=" << k;
    EXPECT_EQ(injector.used(), 0u) << "k=" << k;
  }

  injector.Disarm();
  auto recovered = veo_.StSparql(query);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->ToString(1000), baseline->ToString(1000));
}

/// The fixture's 1,500 `ex:p` triples crossed with 100 `ex:r` ones under
/// a FILTER of 48 regexes per solution: the WHERE stays small in memory
/// (a 64 MiB root holds it) but would run for seconds, polling
/// cancellation every 1,024 evaluated expression nodes (a few rows), so a
/// stop always lands mid-statement.
/// Run to the end it would insert 150,000 triples.
std::string SlowCartesianUpdate(core::VirtualEarthObservatory* veo) {
  std::string ttl = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 100; ++i) {
    ttl += "ex:c" + std::to_string(i) + " ex:r ex:d" + std::to_string(i) +
           " .\n";
  }
  EXPECT_TRUE(veo->LoadLinkedData(ttl).ok());
  std::string filter;
  for (int t = 0; t < 48; ++t) {
    filter += std::string(t > 0 ? " && " : "") + "!regex(str(?d), \"^z" +
              std::to_string(t) + "\")";
  }
  return "PREFIX ex: <http://example.org/> INSERT { ?a ex:q ?d } WHERE { "
         "?a ex:p ?b . ?c ex:r ?d . FILTER(" + filter + ") }";
}

/// The status sys.query_log recorded for `statement` ("" when absent).
std::string LoggedStatus(core::VirtualEarthObservatory& veo,
                         const std::string& statement) {
  for (const obs::QueryCompletion& c : veo.introspection().Log()) {
    if (c.statement == statement) return c.status;
  }
  return "";
}

TEST_F(StSparqlGovernanceTest, KillQueryStopsAnUpdate) {
  const std::string update = SlowCartesianUpdate(&veo_);
  const size_t before = veo_.strabon().size();
  Result<storage::Table> victim = Status::Internal("never ran");
  std::atomic<bool> done{false};
  std::thread worker([&] {
    ScopedBudget scope(&roomy_);
    victim = veo_.StSparql(update);
    done = true;
  });
  bool killed = false;
  while (!done && !killed) {
    auto active = veo_.Sql("SELECT id, statement, state FROM sys.queries");
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    for (size_t r = 0; r < active->num_rows() && !killed; ++r) {
      if (active->Get(r, 1).AsString() == update &&
          active->Get(r, 2).AsString() == "running") {
        killed = veo_
                     .KillQuery(
                         static_cast<uint64_t>(active->Get(r, 0).AsInt64()))
                     .ok();
      }
    }
    if (!killed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  worker.join();
  ASSERT_TRUE(killed) << "the update finished before it could be killed";
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kCancelled)
      << victim.status().ToString();
  EXPECT_EQ(LoggedStatus(veo_, update), "Cancelled");
  EXPECT_EQ(veo_.strabon().size(), before);
}

TEST_F(StSparqlGovernanceTest, StatementDeadlineStopsAnUpdate) {
  const std::string update = SlowCartesianUpdate(&veo_);
  const size_t before = veo_.strabon().size();
  server::Client client = Connect();
  auto stopped = client.Query(server::Lang::kStSparql, update,
                              /*deadline_millis=*/30);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded)
      << stopped.status().ToString();
  EXPECT_EQ(LoggedStatus(veo_, update), "DeadlineExceeded");
  EXPECT_EQ(veo_.strabon().size(), before);
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(StSparqlGovernanceTest, CancelFrameStopsAnUpdate) {
  const std::string update = SlowCartesianUpdate(&veo_);
  const size_t before = veo_.strabon().size();
  server::Client victim = Connect();
  Result<storage::Table> outcome = Status::Internal("never ran");
  std::thread runner(
      [&] { outcome = victim.Query(server::Lang::kStSparql, update); });
  bool running = false;
  for (int i = 0; i < 3000 && !running; ++i) {
    for (const obs::ActiveQuery& q : veo_.introspection().Active()) {
      running = running || (q.statement == update &&
                            q.state == obs::QueryState::kRunning);
    }
    if (!running) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server::Client controller = Connect();
  EXPECT_TRUE(running) << "the update never started";
  ASSERT_TRUE(
      controller.Cancel(victim.session_id(), victim.cancel_key()).ok());
  runner.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
      << outcome.status().ToString();
  EXPECT_EQ(LoggedStatus(veo_, update), "Cancelled");
  EXPECT_EQ(veo_.strabon().size(), before);
  ASSERT_TRUE(victim.Goodbye().ok());
  ASSERT_TRUE(controller.Goodbye().ok());
}

/// The store's triples as sorted N-Triples lines.
std::vector<std::string> SortedTriples(const strabon::Strabon& store) {
  std::vector<std::string> lines;
  const auto& dict = store.store().dict();
  for (const rdf::Triple& t : store.store().Match(rdf::TriplePattern{})) {
    lines.push_back(dict.At(t.s).ToNTriples() + " " +
                    dict.At(t.p).ToNTriples() + " " +
                    dict.At(t.o).ToNTriples());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(StSparqlCommitTest, LoggedUpdateAppliesUnderATinySessionBudget) {
  // Once the WAL has synced an update, the live store must apply it: a
  // budget refusal there would leave the log holding a mutation the live
  // store never made.
  const stdfs::path dir = stdfs::temp_directory_path() /
                          ("stsparql_commit_" + std::to_string(::getpid()));
  const stdfs::path copy = dir.string() + "_copy";
  stdfs::remove_all(dir);
  stdfs::remove_all(copy);
  core::VirtualEarthObservatory live;
  core::DurabilityOptions options;
  options.checkpoint_bytes = 0;
  ASSERT_TRUE(live.Open(dir.string(), options).ok());
  ASSERT_TRUE(live.StSparqlUpdate("PREFIX ex: <http://example.org/> "
                                  "INSERT DATA { ex:a ex:p ex:b . "
                                  "ex:c ex:p ex:d . ex:e ex:p ex:f }")
                  .ok());
  MemoryBudget tiny("tiny", 16);
  {
    ScopedBudget scope(&tiny);
    auto moved = live.StSparqlUpdate(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?s ex:p ?o } INSERT { ?s ex:q ?o } WHERE { ?s ex:p ?o }");
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(*moved, 6u);
  }
  EXPECT_EQ(tiny.used(), 0u);

  stdfs::copy(dir, copy, stdfs::copy_options::recursive);
  core::VirtualEarthObservatory reopened;
  ASSERT_TRUE(reopened.Open(copy.string()).ok());
  EXPECT_EQ(SortedTriples(reopened.strabon()), SortedTriples(live.strabon()));
  stdfs::remove_all(copy);
  stdfs::remove_all(dir);
}

}  // namespace
}  // namespace teleios
