// The network-fault proof for the service layer (src/server/):
//
//   1. Unit coverage of the injectable transport seam — deterministic
//      fail-the-k-th-op programs, short reads/writes, refusals.
//   2. The idempotent-retry dedup window — duplicates replay recorded
//      outcomes, reordered/evicted/oversize entries behave.
//   3. Session leases — idle sessions reaped on an injectable clock,
//      executing sessions spared, heartbeats keep a quiet connection
//      alive over the real wire.
//   4. Per-write timeouts — a client that stops reading is killed and
//      leaks nothing.
//   5. The socket chaos sweep: kill the k-th transport operation for
//      EVERY k in a full client workload (connect/handshake, mutations,
//      multi-chunk streaming, prepared statements, heartbeat, goodbye)
//      and require that the resilient client still completes every
//      step, the server remains serviceable, nothing leaks, and — by
//      WAL replay on a fresh instance — every acked mutation applied
//      exactly once, no matter where the wire died.
//   6. A reconnect storm: many threads hammering a faulty transport
//      concurrently (the TSan leg of check.sh runs this too).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/observatory.h"
#include "governor/memory_budget.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "server/client.h"
#include "server/dedup.h"
#include "server/fault_transport.h"
#include "server/protocol.h"
#include "server/resilient_client.h"
#include "server/server.h"
#include "server/session.h"
#include "server/transport.h"

namespace teleios::server {
namespace {

namespace fs = std::filesystem;
using core::VirtualEarthObservatory;

/// Waits until `pred` holds or ~5s elapse (configurable for paths that
/// first have to chew through a big scan under TSan); returns its
/// final value.
template <typename Pred>
bool Eventually(Pred pred, int ticks = 500) {
  for (int i = 0; i < ticks; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// --- 1. the transport seam ------------------------------------------------

TEST(TransportFaultTest, DisarmedIsAPassThroughThatCountsOps) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  auto listener = faulty.Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  int port = (*listener)->bound_port();
  ASSERT_GT(port, 0);

  std::thread server([&] {
    auto conn = (*listener)->AcceptWithTimeout(5000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    FrameReader reader(conn->get());
    ASSERT_TRUE(reader.Fill(5).ok());
    EXPECT_EQ(reader.buffered(), "hello");
    ASSERT_TRUE((*conn)->WriteAll("world").ok());
  });
  auto conn = faulty.Connect("127.0.0.1", port);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE((*conn)->WriteAll("hello").ok());
  FrameReader reader(conn->get());
  ASSERT_TRUE(reader.Fill(5).ok());
  EXPECT_EQ(reader.buffered(), "world");
  server.join();
  // connect + accept + 2 writes + 2 reads (each five-byte message lands
  // in one read), exactly.
  EXPECT_EQ(faulty.ops(), 6u);
  EXPECT_EQ(faulty.faults_injected(), 0u);
}

TEST(TransportFaultTest, FailsExactlyTheKthOp) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  auto listener = faulty.Listen(0, 4);
  ASSERT_TRUE(listener.ok());
  int port = (*listener)->bound_port();

  // Op 1 = Connect: refused (connect-class faults degrade to refusal).
  TransportFaultSpec spec;
  spec.kind = TransportFaultKind::kIoError;
  spec.inject_at = 1;
  faulty.Arm(spec);
  auto refused = faulty.Connect("127.0.0.1", port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  EXPECT_EQ(faulty.faults_injected(), 1u);

  // Re-armed at op 3: connect(1) and accept(2) succeed, the client
  // write (3) dies.
  faulty.Arm(spec);
  spec.inject_at = 3;
  faulty.Arm(spec);
  auto conn = faulty.Connect("127.0.0.1", port);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto served = (*listener)->AcceptWithTimeout(5000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Status wrote = (*conn)->WriteAll("hello");
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.code(), StatusCode::kIoError) << wrote.ToString();
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

TEST(TransportFaultTest, ShortWriteTearsTheStreamMidMessage) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  auto listener = faulty.Listen(0, 4);
  ASSERT_TRUE(listener.ok());
  auto conn = faulty.Connect("127.0.0.1", (*listener)->bound_port());
  ASSERT_TRUE(conn.ok());
  auto served = (*listener)->AcceptWithTimeout(5000);
  ASSERT_TRUE(served.ok());

  TransportFaultSpec spec;
  spec.kind = TransportFaultKind::kShortWrite;
  spec.inject_at = 1;
  faulty.Arm(spec);
  std::string message = "0123456789abcdef";
  Status wrote = (*conn)->WriteAll(message);
  ASSERT_FALSE(wrote.ok());
  // The peer got exactly the first half, then EOF: a torn frame.
  FrameReader reader(served->get());
  Status read = reader.Fill(message.size());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kDataLoss) << read.ToString();
  EXPECT_EQ(reader.buffered(), "01234567");
}

TEST(TransportFaultTest, ShortReadDeliversAPrefixThenDataLoss) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  auto listener = faulty.Listen(0, 4);
  ASSERT_TRUE(listener.ok());
  auto conn = faulty.Connect("127.0.0.1", (*listener)->bound_port());
  ASSERT_TRUE(conn.ok());
  auto served = (*listener)->AcceptWithTimeout(5000);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE((*conn)->WriteAll("0123456789abcdef").ok());

  TransportFaultSpec spec;
  spec.kind = TransportFaultKind::kShortRead;
  spec.inject_at = 1;
  faulty.Arm(spec);
  // The read that brought all sixteen bytes delivers the first eight and
  // closes the connection; the reader's next read sees EOF mid-message.
  FrameReader reader(served->get());
  Status read = reader.Fill(16);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kDataLoss) << read.ToString();
  EXPECT_EQ(reader.buffered(), "01234567");
}

TEST(TransportFaultTest, ShortReadTearsAFrameIntoDataLoss) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  auto listener = faulty.Listen(0, 4);
  ASSERT_TRUE(listener.ok());
  auto conn = faulty.Connect("127.0.0.1", (*listener)->bound_port());
  ASSERT_TRUE(conn.ok());
  auto served = (*listener)->AcceptWithTimeout(5000);
  ASSERT_TRUE(served.ok());
  std::string frame;
  AppendFrame(&frame, Opcode::kQuery,
              EncodeQuery(Lang::kSql, "SELECT x FROM seed", 0));
  ASSERT_TRUE((*conn)->WriteAll(frame).ok());

  // The read that brings the whole frame delivers half of it, and the
  // frame reader on top reports the torn frame.
  TransportFaultSpec spec;
  spec.kind = TransportFaultKind::kShortRead;
  spec.inject_at = 1;
  faulty.Arm(spec);
  FrameReader reader(served->get());
  auto torn = reader.Next();
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss)
      << torn.status().ToString();
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

TEST(TransportFaultTest, EveryNRepeatsTheFault) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  auto listener = faulty.Listen(0, 4);
  ASSERT_TRUE(listener.ok());
  int port = (*listener)->bound_port();

  TransportFaultSpec spec;
  spec.kind = TransportFaultKind::kIoError;
  spec.inject_at = 1;
  spec.every_n = 2;
  faulty.Arm(spec);
  // Only the connects are counted (nothing accepts): ops 1, 3 and 5
  // are refused, 2 and 4 connect.
  std::vector<std::unique_ptr<Connection>> open;
  for (int i = 1; i <= 5; ++i) {
    auto conn = faulty.Connect("127.0.0.1", port);
    EXPECT_EQ(conn.ok(), i % 2 == 0) << i;
    if (conn.ok()) open.push_back(std::move(conn).value());
  }
  EXPECT_EQ(faulty.ops(), 5u);
  EXPECT_EQ(faulty.faults_injected(), 3u);
}

// --- 2. the dedup window --------------------------------------------------

std::shared_ptr<const storage::Table> OneRowTable(int64_t v) {
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"v", storage::ColumnType::kInt64}}));
  table->column(0).AppendInt64(v);
  return table;
}

TEST(DedupRegistryTest, DuplicateReplaysTheRecordedOutcome) {
  DedupRegistry dedup(/*max_clients=*/4, /*window=*/8);
  auto fresh = dedup.Begin(7, 1);
  EXPECT_EQ(fresh.kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 1, Status::OK(), OneRowTable(42));

  auto replay = dedup.Begin(7, 1);
  EXPECT_EQ(replay.kind, DedupRegistry::Claim::kDone);
  ASSERT_TRUE(replay.status.ok());
  ASSERT_NE(replay.result, nullptr);
  EXPECT_EQ(replay.result->Get(0, 0).AsInt64(), 42);
  EXPECT_EQ(dedup.stats().hits, 1u);

  // Error outcomes replay too — a definitive refusal is as recorded as
  // a success.
  auto bad = dedup.Begin(7, 2);
  EXPECT_EQ(bad.kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 2, Status::InvalidArgument("no such table"), nullptr);
  auto bad_replay = dedup.Begin(7, 2);
  EXPECT_EQ(bad_replay.kind, DedupRegistry::Claim::kDone);
  EXPECT_EQ(bad_replay.status.code(), StatusCode::kInvalidArgument);
}

TEST(DedupRegistryTest, InFlightDuplicateIsToldToBackOff) {
  DedupRegistry dedup(4, 8);
  ASSERT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kFresh);
  auto racing = dedup.Begin(7, 1);
  EXPECT_EQ(racing.kind, DedupRegistry::Claim::kInFlight);
  EXPECT_EQ(racing.status.code(), StatusCode::kUnavailable);
  dedup.Complete(7, 1, Status::OK(), OneRowTable(1));
  EXPECT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kDone);
}

TEST(DedupRegistryTest, AbandonForgetsOnlyUnfinishedEntries) {
  DedupRegistry dedup(4, 8);
  ASSERT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kFresh);
  dedup.Abandon(7, 1);
  // Forgotten: the retry re-executes.
  EXPECT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 1, Status::OK(), OneRowTable(1));
  dedup.Abandon(7, 1);  // no-op on a completed entry
  EXPECT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kDone);
}

TEST(DedupRegistryTest, ReorderedAndEvictedIdsReexecute) {
  DedupRegistry dedup(4, /*window=*/2);
  // Requests complete out of order; both replay while in-window.
  ASSERT_EQ(dedup.Begin(7, 2).kind, DedupRegistry::Claim::kFresh);
  ASSERT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 2, Status::OK(), OneRowTable(2));
  dedup.Complete(7, 1, Status::OK(), OneRowTable(1));
  EXPECT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kDone);
  EXPECT_EQ(dedup.Begin(7, 2).kind, DedupRegistry::Claim::kDone);
  // Two more completions push 2 and then 1 out of the window (FIFO by
  // completion order): the evicted id re-executes.
  ASSERT_EQ(dedup.Begin(7, 3).kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 3, Status::OK(), OneRowTable(3));
  ASSERT_EQ(dedup.Begin(7, 4).kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 4, Status::OK(), OneRowTable(4));
  EXPECT_EQ(dedup.Begin(7, 2).kind, DedupRegistry::Claim::kFresh);
  EXPECT_GE(dedup.stats().evicted, 2u);
}

TEST(DedupRegistryTest, OversizeResultsAreDroppedNotPinned) {
  DedupRegistry dedup(4, 8, /*max_result_bytes=*/64);
  auto big = std::make_shared<storage::Table>(
      storage::Schema({{"s", storage::ColumnType::kString}}));
  big->column(0).AppendString(std::string(4096, 'x'));
  ASSERT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kFresh);
  dedup.Complete(7, 1, Status::OK(),
                 std::shared_ptr<const storage::Table>(big));
  // Too big to remember: the duplicate re-executes instead of replaying.
  EXPECT_EQ(dedup.Begin(7, 1).kind, DedupRegistry::Claim::kFresh);
  EXPECT_EQ(dedup.stats().oversize, 1u);
}

TEST(DedupRegistryTest, ColdestClientIsEvictedAtCapacity) {
  DedupRegistry dedup(/*max_clients=*/2, 8);
  dedup.Begin(1, 1);
  dedup.Complete(1, 1, Status::OK(), OneRowTable(1));
  dedup.Begin(2, 1);
  dedup.Complete(2, 1, Status::OK(), OneRowTable(2));
  dedup.Begin(1, 2);  // touch client 1: client 2 is now coldest
  dedup.Begin(3, 1);  // third client evicts client 2
  EXPECT_EQ(dedup.stats().clients, 2u);
  // The touched client survived with its history; the evicted one is a
  // stranger again (and re-admitting it evicts the current coldest).
  EXPECT_EQ(dedup.Begin(1, 1).kind, DedupRegistry::Claim::kDone);
  EXPECT_EQ(dedup.Begin(2, 1).kind, DedupRegistry::Claim::kFresh);
}

// --- 3. session leases ----------------------------------------------------

TEST(SessionLeaseTest, IdleSessionsExpireOnTheInjectedClock) {
  SessionRegistry registry;
  int64_t now = 1'000'000;
  registry.SetClockForTest([&now] { return now; });

  auto idle = registry.Open("peer-a", "binary", 0);
  idle->set_state("idle");
  auto fresh = registry.Open("peer-b", "binary", 0);
  fresh->set_state("idle");
  auto executing = registry.Open("peer-c", "binary", 0);
  executing->set_state("executing");
  auto shaking = registry.Open("peer-d", "binary", 0);  // "handshake"

  now += 5'000;
  fresh->Touch(registry.NowMillis());  // peer-b renews its lease
  now += 56'000;                       // a + d are now 61s idle, b 56s

  const uint64_t before = CounterValue("teleios_server_lease_expired_total");
  EXPECT_EQ(registry.ReapExpired(/*lease_millis=*/60'000), 2u);
  EXPECT_EQ(CounterValue("teleios_server_lease_expired_total"), before + 2);
  EXPECT_EQ(idle->state(), "expired");
  EXPECT_EQ(shaking->state(), "expired");
  // The executing session was spared no matter how stale: a running
  // statement is the write timeout's jurisdiction.
  EXPECT_EQ(executing->state(), "executing");
  EXPECT_EQ(fresh->state(), "idle");
  // Reaping is idempotent until more time passes.
  EXPECT_EQ(registry.ReapExpired(60'000), 0u);
  registry.Close(idle);
  registry.Close(fresh);
  registry.Close(executing);
  registry.Close(shaking);
}

TEST(SessionLeaseTest, ZeroLeaseDisablesReaping) {
  SessionRegistry registry;
  int64_t now = 0;
  registry.SetClockForTest([&now] { return now; });
  auto session = registry.Open("peer", "binary", 0);
  session->set_state("idle");
  now += 1'000'000'000;
  EXPECT_EQ(registry.ReapExpired(0), 0u);
  registry.Close(session);
}

// --- wire-level fixtures --------------------------------------------------

class ChaosServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("socket_chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    governor::AdmissionConfig admission;
    admission.max_concurrent = 8;
    admission.max_queue = 128;
    veo_.SetAdmissionConfig(admission);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      ASSERT_TRUE(server_->Shutdown().ok());
    }
    server_.reset();
    fs::remove_all(dir_);
  }

  void MakeSeedTable(size_t n) {
    auto table = std::make_shared<storage::Table>(
        storage::Schema({{"x", storage::ColumnType::kInt64}}));
    for (size_t i = 0; i < n; ++i) {
      table->column(0).AppendInt64(static_cast<int64_t>(i));
    }
    ASSERT_TRUE(veo_.catalog().CreateTable("seed", table).ok());
  }

  void StartServer(ServerConfig config) {
    config.port = 0;
    server_ = std::make_unique<TeleiosServer>(&veo_, config);
    ASSERT_TRUE(server_->Start().ok());
  }

  fs::path dir_;
  VirtualEarthObservatory veo_;
  std::unique_ptr<TeleiosServer> server_;
};

TEST_F(ChaosServerTest, HeartbeatKeepsAQuietSessionAliveOverTheWire) {
  MakeSeedTable(8);
  ServerConfig config;
  config.lease_millis = 400;  // reaper scans every ~40ms
  StartServer(config);

  auto pinger = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(pinger.ok()) << pinger.status().ToString();
  auto silent = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(silent.ok()) << silent.status().ToString();
  ASSERT_TRUE(Eventually([&] { return server_->sessions().live() == 2; }));

  const uint64_t reaped_before =
      CounterValue("teleios_server_lease_expired_total");
  // 1.2s of quiet — three leases deep — but the pinger heartbeats.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(pinger->Ping().ok()) << "ping " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // The silent session was reaped; the pinging one survived.
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 1; }));
  EXPECT_GE(CounterValue("teleios_server_lease_expired_total"),
            reaped_before + 1);
  auto result = pinger->Query(Lang::kSql, "SELECT x FROM seed");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(pinger->Goodbye().ok());
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
}

/// Bytes the kernel may buffer on one TCP connection once it has grown
/// both ends' buffers as far as it will: the receive and send maxima
/// (the third field of tcp_rmem and of tcp_wmem). 64 MiB when they
/// cannot be read.
uint64_t MaxSocketBufferBytes() {
  uint64_t total = 0;
  for (const char* path :
       {"/proc/sys/net/ipv4/tcp_rmem", "/proc/sys/net/ipv4/tcp_wmem"}) {
    std::ifstream in(path);
    uint64_t min_bytes = 0, default_bytes = 0, max_bytes = 0;
    if (!(in >> min_bytes >> default_bytes >> max_bytes)) return 64ull << 20;
    total += max_bytes;
  }
  return total;
}

TEST_F(ChaosServerTest, WriteTimeoutKillsAClientThatStoppedReading) {
  // A result larger than all the kernel may buffer on the connection,
  // so the server's stream must stall once the client stops draining
  // it, however its write loop waits. Wide rows (one shared 16 KiB
  // string) keep the row count, and so the scan under TSan, small.
  const std::string wide(16u << 10, 'x');
  const uint64_t result_bytes = MaxSocketBufferBytes() + (8u << 20);
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"s", storage::ColumnType::kString}}));
  for (uint64_t bytes = 0; bytes < result_bytes; bytes += wide.size()) {
    table->column(0).AppendString(wide);
  }
  ASSERT_TRUE(veo_.catalog().CreateTable("wide", table).ok());
  ServerConfig config;
  config.write_timeout_millis = 200;
  config.chunk_rows = 16;  // 256 KiB frames
  config.lease_millis = 0;  // isolate the write-timeout path
  StartServer(config);

  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->SendQuery(Lang::kSql, "SELECT s FROM wide").ok());
  // Read nothing. The server fills the kernel buffers, stalls, times
  // out, and kills the connection — session and budget released.
  const uint64_t before = CounterValue("teleios_server_write_timeouts_total");
  // 30s ceiling, for the sanitizer builds.
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; },
                         /*ticks=*/3000));
  EXPECT_GE(CounterValue("teleios_server_write_timeouts_total"), before + 1);
}

TEST_F(ChaosServerTest, ShedWriteIsRetriedNotReplayed) {
  // A write that admission shed never ran: its retry must run it, not
  // replay the recorded refusal from the dedup window.
  ASSERT_TRUE(veo_.Sql("CREATE TABLE shed_t (v INT)").ok());
  governor::AdmissionConfig one_slot;
  one_slot.max_concurrent = 1;
  one_slot.max_queue = 0;
  veo_.SetAdmissionConfig(one_slot);
  StartServer({});
  // Hold the only slot, as a long statement would, until the write has
  // been shed once.
  auto held = veo_.admission().Admit(nullptr);
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  const uint64_t shed_before =
      CounterValue("teleios_governor_admission_shed_total");
  ResilientClientOptions options;
  options.client.client_id = 77;
  options.retry.max_attempts = 8;
  options.retry.base_backoff_ms = 50;
  options.retry.max_backoff_ms = 400;
  options.retry.jitter_seed = 7;
  ResilientClient rc("127.0.0.1", server_->port(), options);
  Result<storage::Table> insert = Status::Internal("never ran");
  std::thread writer(
      [&] { insert = rc.Query(Lang::kSql, "INSERT INTO shed_t VALUES (1)"); });
  EXPECT_TRUE(Eventually([&] {
    return CounterValue("teleios_governor_admission_shed_total") >
           shed_before;
  }));
  held->reset();
  writer.join();
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_GE(rc.retries(), 1u);
  auto rows = veo_.Sql("SELECT count(*) AS n FROM shed_t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->Get(0, 0).AsInt64(), 1);
  ASSERT_TRUE(rc.Goodbye().ok());
}

// --- 5. the socket chaos sweep --------------------------------------------

/// One full client lifetime against a durable observatory: mutations
/// (plain and prepared), multi-chunk streamed reads, a heartbeat, a
/// goodbye. Every statement goes through ResilientClient, so with at
/// most one injected fault the workload must succeed end to end.
/// Returns the values the four INSERTs acked.
void RunChaosWorkload(int port, uint64_t client_id, int64_t base) {
  ResilientClientOptions options;
  options.client.client_id = client_id;
  options.retry.max_attempts = 8;
  options.retry.base_backoff_ms = 1;
  options.retry.max_backoff_ms = 20;
  options.retry.jitter_seed = 42;
  ResilientClient rc("127.0.0.1", port, options);

  auto create = rc.Query(
      Lang::kSql, "CREATE TABLE chaos_t (v INT)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  for (int64_t v = base; v < base + 2; ++v) {
    auto insert = rc.Query(
        Lang::kSql, "INSERT INTO chaos_t VALUES (" + std::to_string(v) + ")");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  }
  ASSERT_TRUE(rc.Ping().ok());
  auto stream = rc.Query(Lang::kSql, "SELECT x FROM seed");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream->num_rows(), 96u);
  auto prepared = rc.Prepare(Lang::kSql, "INSERT INTO chaos_t VALUES (?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (int64_t v = base + 2; v < base + 4; ++v) {
    auto exec = rc.Execute(*prepared, {Value(v)});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  }
  auto count = rc.Query(Lang::kSql, "SELECT count(*) AS n FROM chaos_t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->Get(0, 0).AsInt64(), 4);
  auto ordered = rc.Query(Lang::kSql, "SELECT x FROM seed ORDER BY x");
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  EXPECT_EQ(ordered->num_rows(), 96u);
  ASSERT_TRUE(rc.Ping().ok());
  Status bye = rc.Goodbye();
  (void)bye;  // goodbye on a faulted connection may legitimately fail
}

constexpr size_t kSeedRows = 96;
constexpr int64_t kBase = 100;

void SeedObservatory(VirtualEarthObservatory* veo) {
  governor::AdmissionConfig admission;
  admission.max_concurrent = 8;
  admission.max_queue = 128;
  veo->SetAdmissionConfig(admission);
  auto table = std::make_shared<storage::Table>(
      storage::Schema({{"x", storage::ColumnType::kInt64}}));
  for (size_t i = 0; i < kSeedRows; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(i));
  }
  ASSERT_TRUE(veo->catalog().CreateTable("seed", table).ok());
}

/// What one sweep iteration's workload did on the transport.
struct SweepRun {
  uint64_t ops = 0;
  uint64_t faults = 0;
};

/// One sweep iteration: fresh durable observatory + server in `wal_dir`,
/// the workload run with `spec` armed on `faulty`, then serviceability,
/// leak, and (by reopening the directory) WAL exactly-once checks.
/// Writes the workload's op and fault counts to `run`.
void RunSweepIteration(FaultInjectingTransport* faulty,
                       const TransportFaultSpec& spec, const fs::path& wal_dir,
                       uint64_t client_id, SweepRun* run) {
  fs::create_directories(wal_dir);
  {
    VirtualEarthObservatory veo;
    SeedObservatory(&veo);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(veo.Open(wal_dir.string()).ok());
    ServerConfig config;
    config.port = 0;
    config.chunk_rows = 8;  // 12 ROWS frames per seed SELECT
    config.max_sessions = 8;
    config.lease_millis = 2'000;
    config.write_timeout_millis = 2'000;
    TeleiosServer server(&veo, config);
    ASSERT_TRUE(server.Start().ok());
    const size_t budgets_after_start = governor::AllBudgetStats().size();

    faulty->Arm(spec);
    RunChaosWorkload(server.port(), client_id, kBase);
    // The server reads the client's GOODBYE on its own thread, after the
    // workload has returned: sample once every session has closed, or a
    // late read goes uncounted and a fault aimed at it never fires.
    EXPECT_TRUE(Eventually([&] { return server.sessions().live() == 0; }));
    run->ops = faulty->ops();
    run->faults = faulty->faults_injected();
    faulty->Disarm();
    if (::testing::Test::HasFatalFailure()) return;

    // Server still serviceable after the fault, with nothing leaked:
    // no live session, no budget residue, no orphaned query entry.
    auto probe = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    auto check =
        probe->Query(Lang::kSql, "SELECT count(*) AS n FROM chaos_t");
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_EQ(check->Get(0, 0).AsInt64(), 4);
    ASSERT_TRUE(probe->Goodbye().ok());
    ASSERT_TRUE(Eventually([&] { return server.sessions().live() == 0; }));
    ASSERT_TRUE(Eventually([&] {
      return governor::AllBudgetStats().size() == budgets_after_start;
    }));
    EXPECT_EQ(veo.introspection().started_total(),
              veo.introspection().finished_total());
    ASSERT_TRUE(server.Shutdown().ok());
  }

  // Exactly-once, proven by WAL replay: a fresh instance recovered from
  // the directory holds each acked mutation exactly once — however many
  // times the wire died and the client retried.
  VirtualEarthObservatory recovered;
  ASSERT_TRUE(recovered.Open(wal_dir.string()).ok());
  auto rows = recovered.Sql("SELECT v FROM chaos_t ORDER BY v");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->num_rows(), 4u)
      << "retried mutations must apply exactly once";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rows->Get(i, 0).AsInt64(), kBase + i);
  }
  fs::remove_all(wal_dir);
}

TEST_F(ChaosServerTest, KillAtEverySocketOpStaysExactlyOnce) {
  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);

  // Probe pass: the workload through a disarmed injector, counting the
  // transport operations a clean run performs.
  TransportFaultSpec probe;
  probe.inject_at = 0;  // disarmed: count only
  SweepRun clean;
  RunSweepIteration(&faulty, probe, dir_ / "probe", /*client_id=*/1, &clean);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(clean.faults, 0u);

  // The sweep: for every k, a fresh run whose k-th transport op dies.
  // How many ops a run takes depends on how many reads its replies need,
  // so the probe's count is no bound: the sweep goes on until a run ends
  // before its k-th op, which proves every earlier k injected its fault.
  // Fault kinds rotate so resets, torn writes, torn reads, and clean
  // disconnects all land on every path eventually.
  const TransportFaultKind kKinds[] = {
      TransportFaultKind::kIoError, TransportFaultKind::kShortWrite,
      TransportFaultKind::kShortRead, TransportFaultKind::kDisconnect};
  uint64_t k = 1;
  for (;; ++k) {
    SCOPED_TRACE("fault at op " + std::to_string(k));
    // A run's clean prefix is a clean run, so k cannot pass what a clean
    // run takes by much; a sweep that does has lost its end.
    ASSERT_LE(k, 2 * clean.ops + 16) << "the sweep never ended";
    TransportFaultSpec spec;
    spec.kind = kKinds[k % 4];
    spec.inject_at = k;
    SweepRun run;
    RunSweepIteration(&faulty, spec, dir_ / ("k" + std::to_string(k)),
                      /*client_id=*/k + 1, &run);
    if (::testing::Test::HasFatalFailure()) return;
    if (run.faults == 0) {
      EXPECT_LT(run.ops, k);
      break;
    }
  }
  const uint64_t swept = k - 1;
  // The floor: the handshake takes 6 ops; nine single-reply round trips
  // (CREATE, two INSERTs, PREPARE, two EXECUTEs, the count SELECT, two
  // PINGs) at least four each, a write and a read on each side; the two
  // streamed SELECTs of 12 chunks at least 15 each; and the GOODBYE 2,
  // the client's write and the server's read. So a run crosses at least
  // 74 fault points, the last of them the server's read of the GOODBYE;
  // reads that wake before a whole reply has arrived add a few more.
  EXPECT_GE(swept, 74u);
  std::cout << "[sweep] " << swept << " fault points (clean probe: "
            << clean.ops << " ops)\n";
}

// --- 6. the reconnect storm (also the TSan leg) ---------------------------

TEST_F(ChaosServerTest, ReconnectStormAppliesEveryMutationExactlyOnce) {
  MakeSeedTable(96);
  ASSERT_TRUE(
      veo_.Sql("CREATE TABLE storm (tid INT, seq INT)").ok());
  ServerConfig config;
  config.max_sessions = 24;
  config.chunk_rows = 32;
  config.lease_millis = 5'000;
  config.write_timeout_millis = 2'000;
  StartServer(config);

  FaultInjectingTransport faulty;
  ScopedTransport scope(&faulty);
  TransportFaultSpec spec;
  spec.kind = TransportFaultKind::kDisconnect;
  spec.inject_at = 17;
  // Only the clients' ops count (the server listened before the faulty
  // transport was installed). The period must exceed the op cost of the
  // longest single operation (connect + handshake + a 3-chunk streamed
  // SELECT: at most 7 client ops, a reply being one read once it has
  // fully arrived): a lone straggler with a shorter period would catch a
  // fault on EVERY attempt and could never finish.
  spec.every_n = 17;
  faulty.Arm(spec);

  constexpr int kThreads = 8;
  constexpr int kMutationsPerThread = 6;
  std::atomic<int> failures{0};
  std::mutex log_mu;
  std::vector<std::string> failure_log;
  auto record = [&](const std::string& what, const Status& status) {
    ++failures;
    std::lock_guard<std::mutex> hold(log_mu);
    failure_log.push_back(what + ": " + status.ToString());
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ResilientClientOptions options;
      options.client.client_id = static_cast<uint64_t>(t) + 1;
      options.retry.max_attempts = 12;
      options.retry.base_backoff_ms = 1;
      options.retry.max_backoff_ms = 20;
      options.retry.decorrelated_jitter = true;
      options.retry.jitter_seed = static_cast<uint64_t>(t) + 1;
      ResilientClient rc("127.0.0.1", server_->port(), options);
      for (int i = 0; i < kMutationsPerThread; ++i) {
        auto insert = rc.Query(
            Lang::kSql, "INSERT INTO storm VALUES (" + std::to_string(t) +
                            ", " + std::to_string(i) + ")");
        if (!insert.ok()) {
          record("insert", insert.status());
          continue;
        }
        auto read = rc.Query(Lang::kSql, "SELECT x FROM seed");
        if (!read.ok()) {
          record("read", read.status());
        } else if (read->num_rows() != 96) {
          record("read", Status::DataLoss(
                             "got " + std::to_string(read->num_rows()) +
                             " rows"));
        }
      }
      Status bye = rc.Goodbye();
      (void)bye;
    });
  }
  for (auto& thread : threads) thread.join();
  faulty.Disarm();
  // The storm must actually storm — otherwise this test proves nothing.
  EXPECT_GT(faulty.faults_injected(), 5u);
  std::string sample;
  for (size_t i = 0; i < failure_log.size() && i < 4; ++i) {
    sample += "\n  " + failure_log[i];
  }
  EXPECT_EQ(failures.load(), 0) << "first failures:" << sample;

  // Every (tid, seq) exactly once despite the storm of retries.
  auto rows = veo_.Sql("SELECT count(*) AS n FROM storm");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->Get(0, 0).AsInt64(), kThreads * kMutationsPerThread);
  auto distinct = veo_.Sql(
      "SELECT tid, seq FROM storm GROUP BY tid, seq");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct->num_rows(),
            static_cast<size_t>(kThreads * kMutationsPerThread));
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
}

}  // namespace
}  // namespace teleios::server
