#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/observatory.h"
#include "obs/event_log.h"

namespace teleios::core {
namespace {

/// The root (first) event of a Chrome trace export, which writes one
/// event per line, root first.
std::string RootEvent(const std::string& trace_json) {
  size_t begin = trace_json.find('\n') + 1;
  return trace_json.substr(begin, trace_json.find('\n', begin) - begin);
}

/// Collects column `col` of every row as strings.
std::vector<std::string> ColumnStrings(const storage::Table& table,
                                       size_t col) {
  std::vector<std::string> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out.push_back(table.Get(r, col).AsString());
  }
  return out;
}

class IntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Query ids restart at 1 in every observatory, so an earlier
    // fixture's events would alias this one's ids.
    obs::EventLog::Global().Reset();
    auto table = std::make_shared<storage::Table>(
        storage::Schema({{"x", storage::ColumnType::kInt64}}));
    for (int64_t i = 0; i < 8; ++i) table->column(0).AppendInt64(i);
    ASSERT_TRUE(veo_.catalog().CreateTable("t8", table).ok());
  }

  /// Registers an int64 table of `n` rows named `name`.
  void MakeBigTable(const std::string& name, size_t n) {
    auto table = std::make_shared<storage::Table>(
        storage::Schema({{"x", storage::ColumnType::kInt64}}));
    for (size_t i = 0; i < n; ++i) {
      table->column(0).AppendInt64(static_cast<int64_t>(i));
    }
    ASSERT_TRUE(veo_.catalog().CreateTable(name, table).ok());
  }

  VirtualEarthObservatory veo_;
};

// ---------------------------------------------------------------------------
// sys.* virtual tables through the SQL surface
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, SysQueriesObservesTheObservingStatement) {
  // The snapshot is taken while the statement runs, so a SELECT over
  // sys.queries always contains at least itself, in state running.
  auto q = veo_.Sql("SELECT statement, state FROM sys.queries");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_GE(q->num_rows(), 1u);
  bool found_self = false;
  for (size_t r = 0; r < q->num_rows(); ++r) {
    if (q->Get(r, 0).AsString().find("sys.queries") != std::string::npos) {
      found_self = true;
      EXPECT_EQ(q->Get(r, 1).AsString(), "running");
    }
  }
  EXPECT_TRUE(found_self);
}

TEST_F(IntrospectionTest, SysTablesMaterializeLiveState) {
  auto pools = veo_.Sql("SELECT name, workers FROM sys.pools");
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  EXPECT_EQ(pools->num_rows(), 1u);

  auto metrics = veo_.Sql("SELECT name, kind, value FROM sys.metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->num_rows(), 0u);

  // The running statement's own per-query budget is live in sys.budgets.
  auto budgets = veo_.Sql("SELECT name FROM sys.budgets");
  ASSERT_TRUE(budgets.ok()) << budgets.status().ToString();
  std::vector<std::string> names = ColumnStrings(*budgets, 0);
  EXPECT_NE(std::find(names.begin(), names.end(), "sql-query"), names.end());

  // The observatory's vault carries an ingest breaker; the registry is
  // process-global so at least that one is visible.
  auto breakers = veo_.Sql("SELECT name, state FROM sys.breakers");
  ASSERT_TRUE(breakers.ok()) << breakers.status().ToString();
  EXPECT_GT(breakers->num_rows(), 0u);
}

TEST_F(IntrospectionTest, SysTablesComposeWithTheRelationalSurface) {
  // Virtual tables are plain snapshots: WHERE and aggregates apply.
  auto q = veo_.Sql(
      "SELECT count(*) AS n FROM sys.metrics WHERE kind = 'counter'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->num_rows(), 1u);
  EXPECT_GT(q->Get(0, 0).AsInt64(), 0);
}

TEST_F(IntrospectionTest, QueryLogRecordsCompletionsWithCardinality) {
  ASSERT_TRUE(veo_.Sql("SELECT x FROM t8 WHERE x > 3").ok());
  auto log = veo_.Sql(
      "SELECT statement, status, rows FROM sys.query_log");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  bool found = false;
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (log->Get(r, 0).AsString() != "SELECT x FROM t8 WHERE x > 3") continue;
    found = true;
    EXPECT_EQ(log->Get(r, 1).AsString(), "OK");
    EXPECT_EQ(log->Get(r, 2).AsInt64(), 4);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Completion ring semantics
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, QueryLogRingWraparoundIsExact) {
  obs::IntrospectionConfig config = veo_.introspection().config();
  config.query_log_capacity = 4;
  veo_.introspection().Reconfigure(config);
  uint64_t dropped_before = veo_.introspection().log_dropped_total();
  size_t logged_before = veo_.introspection().Log().size();

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        veo_.Sql("SELECT x FROM t8 WHERE x > " + std::to_string(i)).ok());
  }

  std::vector<obs::QueryCompletion> log = veo_.introspection().Log();
  ASSERT_EQ(log.size(), 4u);
  // The survivors are exactly the newest four, ids contiguous ascending.
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_EQ(log[i].id, log[i - 1].id + 1);
  }
  EXPECT_EQ(log.back().statement, "SELECT x FROM t8 WHERE x > 9");
  // Every displaced record is accounted for: 10 new completions plus
  // whatever was retained before, minus the 4 kept.
  EXPECT_EQ(veo_.introspection().log_dropped_total() - dropped_before,
            logged_before + 10 - 4);
}

TEST_F(IntrospectionTest, SlowQueryThresholdFires) {
  obs::IntrospectionConfig config = veo_.introspection().config();
  config.slow_query_millis = 0;  // every completion is "slow"
  veo_.introspection().Reconfigure(config);

  ASSERT_TRUE(veo_.Sql("SELECT x FROM t8 WHERE x > 6").ok());
  uint64_t id = veo_.introspection().Log().back().id;

  bool fired = false;
  for (const obs::Event& event : obs::EventLog::Global().Snapshot()) {
    if (event.type == "query.slow" &&
        event.Field("id") == std::to_string(id)) {
      fired = true;
      EXPECT_EQ(event.Field("statement"), "SELECT x FROM t8 WHERE x > 6");
    }
  }
  EXPECT_TRUE(fired);

  // The same events are queryable as a table.
  auto events = veo_.Sql(
      "SELECT count(*) AS n FROM sys.events WHERE type = 'query.slow'");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_GT(events->Get(0, 0).AsInt64(), 0);
}

// ---------------------------------------------------------------------------
// KillQuery
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, KillUnknownIdIsNotFound) {
  EXPECT_EQ(veo_.KillQuery(99999999).code(), StatusCode::kNotFound);
}

TEST_F(IntrospectionTest, KillAbandonsAQueuedStatement) {
  // One slot, held externally: the victim statement must sit in the
  // admission queue, observable as state=queued, until killed.
  governor::AdmissionConfig one;
  one.max_concurrent = 1;
  one.max_queue = 4;
  one.max_wait = std::chrono::milliseconds(30000);
  veo_.SetAdmissionConfig(one);
  auto held = veo_.admission().Admit(nullptr);
  ASSERT_TRUE(held.ok());

  Result<storage::Table> victim = Status::Internal("never ran");
  std::thread worker(
      [&] { victim = veo_.Sql("SELECT x FROM t8 WHERE x > 0"); });

  uint64_t id = 0;
  for (int spin = 0; spin < 20000 && id == 0; ++spin) {
    for (const obs::ActiveQuery& q : veo_.introspection().Active()) {
      if (q.state == obs::QueryState::kQueued) id = q.id;
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "victim never showed up in sys.queries";
  EXPECT_TRUE(veo_.KillQuery(id).ok());

  worker.join();
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kCancelled);
  held->reset();
  veo_.SetAdmissionConfig(governor::AdmissionConfig{});
}

TEST_F(IntrospectionTest, KillStopsALongScanObservedFromAnotherThread) {
  // The ISSUE's acceptance scenario, end to end: a long morsel-driven
  // scan on one thread, observed via SELECT over sys.queries from this
  // one, killed by id, and its kCancelled completion record — with a
  // sampled trace — found in sys.query_log. The modulo predicate never
  // compiles to a vectorized filter, so the scan stays on the
  // interpreted per-row path (slow by design) and polls cancellation at
  // every morsel boundary.
  MakeBigTable("big", 6u << 20);
  obs::IntrospectionConfig config = veo_.introspection().config();
  config.trace_sample_every = 1;  // trace the victim without PROFILE
  veo_.introspection().Reconfigure(config);

  const std::string scan = "SELECT x FROM big WHERE (x * 37 + x) % 1013 = 5";
  Result<storage::Table> victim = Status::Internal("never ran");
  std::thread worker([&] { victim = veo_.Sql(scan); });

  // Observe the scan from this thread, through the SQL surface.
  uint64_t id = 0;
  for (int spin = 0; spin < 60000 && id == 0; ++spin) {
    auto active = veo_.Sql("SELECT id, statement, state FROM sys.queries");
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    for (size_t r = 0; r < active->num_rows(); ++r) {
      if (active->Get(r, 1).AsString().find("FROM big") ==
          std::string::npos) {
        continue;
      }
      if (active->Get(r, 2).AsString() == "running") {
        id = static_cast<uint64_t>(active->Get(r, 0).AsInt64());
      }
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "scan never showed up running in sys.queries";

  EXPECT_TRUE(veo_.KillQuery(id).ok());
  worker.join();
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kCancelled)
      << victim.status().ToString();

  // The completion record: killed, latency measured, budget accounted
  // (the filter charged its selection vectors before scanning), trace
  // attached.
  auto log = veo_.Sql(
      "SELECT id, status, latency_millis, peak_budget_bytes, trace_json "
      "FROM sys.query_log");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  std::string trace_json;
  bool found = false;
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (static_cast<uint64_t>(log->Get(r, 0).AsInt64()) != id) continue;
    found = true;
    EXPECT_EQ(log->Get(r, 1).AsString(), "Cancelled");
    EXPECT_GT(log->Get(r, 2).AsFloat64(), 0.0);
    EXPECT_GT(log->Get(r, 3).AsInt64(), 0);
    trace_json = log->Get(r, 4).AsString();
  }
  ASSERT_TRUE(found) << "killed query left no sys.query_log record";

  // The sampled trace is Chrome trace-event JSON and carries the
  // outcome on its root span.
  ASSERT_FALSE(trace_json.empty());
  std::string root = RootEvent(trace_json);
  EXPECT_EQ(root.rfind("{\"name\": \"sql\", \"ph\": \"X\"", 0), 0u) << root;
  EXPECT_NE(root.find("\"status\": \"Cancelled\""), std::string::npos) << root;
}

// ---------------------------------------------------------------------------
// Traces: PROFILE, sampling, error paths
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, ProfileTraceRoundTripsThroughChromeJson) {
  auto profile = veo_.Sql("PROFILE SELECT x FROM t8 WHERE x > 3");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  obs::QueryCompletion last = veo_.introspection().Log().back();
  ASSERT_EQ(last.statement, "SELECT x FROM t8 WHERE x > 3");
  ASSERT_FALSE(last.trace_json.empty());
  std::string root = RootEvent(last.trace_json);
  EXPECT_EQ(root.rfind("{\"name\": \"sql\", \"ph\": \"X\"", 0), 0u) << root;
  EXPECT_NE(root.find("\"args\": {\"depth\": 0, "), std::string::npos) << root;
  EXPECT_NE(root.find("\"status\": \"OK\""), std::string::npos) << root;
  EXPECT_NE(root.find("\"rows\": \"4\""), std::string::npos) << root;
  EXPECT_NE(last.trace_json.find("{\"name\": \"governor.admit\""),
            std::string::npos);
}

TEST_F(IntrospectionTest, FailingStatementStillLandsItsTrace) {
  auto bad = veo_.Sql("PROFILE SELECT missing FROM nope");
  ASSERT_FALSE(bad.ok());

  obs::QueryCompletion last = veo_.introspection().Log().back();
  EXPECT_EQ(last.statement, "SELECT missing FROM nope");
  EXPECT_EQ(last.status, "NotFound");
  ASSERT_FALSE(last.trace_json.empty());
  EXPECT_NE(RootEvent(last.trace_json).find("\"status\": \"NotFound\""),
            std::string::npos)
      << last.trace_json;
}

TEST_F(IntrospectionTest, SamplingTracesEveryNthQuery) {
  obs::IntrospectionConfig config = veo_.introspection().config();
  config.trace_sample_every = 2;
  veo_.introspection().Reconfigure(config);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(veo_.Sql("SELECT x FROM t8 WHERE x > 1").ok());
  }
  int traced = 0;
  for (const obs::QueryCompletion& c : veo_.introspection().Log()) {
    if (c.trace_json.empty()) continue;
    ++traced;
    EXPECT_EQ(c.id % 2, 0u) << "only even ids are sampled at N=2";
  }
  EXPECT_EQ(traced, 3);
}

// ---------------------------------------------------------------------------
// Concurrency (exercised under TSan by scripts/check.sh)
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, ConcurrentIntrospectionReadsStayCoherent) {
  constexpr int kIters = 40;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Readers hammer the sys.* surface while writers run real statements
  // and a killer cancels arbitrary ids — every combination must stay a
  // clean result (OK, or Cancelled when the killer won the race), never
  // a crash or a torn snapshot.
  auto clean = [](const Result<storage::Table>& r) {
    return r.ok() || r.status().code() == StatusCode::kCancelled;
  };
  for (const char* statement :
       {"SELECT id, state FROM sys.queries",
        "SELECT status FROM sys.query_log",
        "SELECT name FROM sys.metrics WHERE kind = 'counter'"}) {
    threads.emplace_back([this, statement, &failed, &clean] {
      for (int i = 0; i < kIters; ++i) {
        if (!clean(veo_.Sql(statement))) failed = true;
      }
    });
  }
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([this, &failed, &clean] {
      for (int i = 0; i < kIters; ++i) {
        if (!clean(veo_.Sql("SELECT x FROM t8 WHERE x % 2 = 1"))) {
          failed = true;
        }
      }
    });
  }
  threads.emplace_back([this] {
    for (uint64_t id = 1; id <= 2 * kIters; ++id) {
      // Racing real completions: OK and NotFound are both legitimate.
      Status s = veo_.KillQuery(id);
      if (!s.ok() && s.code() != StatusCode::kNotFound) std::abort();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  // Everything that started also finished; no phantom rows survive.
  EXPECT_TRUE(veo_.introspection().Active().empty());
  EXPECT_EQ(veo_.introspection().started_total(),
            veo_.introspection().finished_total());
}

}  // namespace
}  // namespace teleios::core
