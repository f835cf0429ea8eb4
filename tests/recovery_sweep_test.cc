// The crash-recovery proof: for every k, kill the filesystem at the
// k-th I/O operation during a durable mutation workload (every op after
// the fault fails too — a process death at that exact point), then
// re-open a fresh instance over the same directory and require that
//   (a) recovery itself never fails — a torn WAL tail is dropped and
//       counted, never surfaced as data loss,
//   (b) the recovered state is a prefix of the issued mutations (no
//       holes, no reordering, no partial effects), and
//   (c) every fsync-acknowledged mutation is present — acked durability
//       survives the crash.
// Swept with both clean I/O errors and torn (short) writes, with and
// without checkpoints landing inside the sweep window.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/observatory.h"
#include "core/recovery.h"
#include "eo/product.h"
#include "eo/scene.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "io/wal.h"
#include "linkeddata/generators.h"
#include "mining/annotation_service.h"
#include "mining/features.h"
#include "noa/chain.h"
#include "relational/sql_engine.h"
#include "storage/catalog.h"
#include "storage/persistence.h"
#include "strabon/strabon.h"
#include "vault/formats.h"

namespace teleios {
namespace {

namespace stdfs = std::filesystem;

using core::DurabilityEngines;
using core::DurabilityManager;
using core::DurabilityOptions;
using core::RecordBody;
using core::RecoveryReport;
using core::WalRecordType;

// One "process": engines plus the durability layer over them. A fresh
// Instance over the same directory is a restart.
struct Instance {
  explicit Instance(const std::string& dir, const DurabilityOptions& options)
      : sql(&catalog), dir(dir), options(options) {
    DurabilityEngines engines;
    engines.catalog = &catalog;
    engines.sql = &sql;
    engines.strabon = &strabon;
    db = std::make_unique<DurabilityManager>(engines);
  }

  Status Open() { return db->Open(dir, options); }

  storage::Catalog catalog;
  relational::SqlEngine sql;
  strabon::Strabon strabon;
  const std::string dir;
  const DurabilityOptions options;
  std::unique_ptr<DurabilityManager> db;
};

class RecoverySweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("recovery_sweep_" + std::to_string(::getpid()));
    stdfs::create_directories(dir_);
    faulty_ = std::make_unique<io::FaultInjectingFileSystem>(&posix_);
    prev_ = io::SetFileSystem(faulty_.get());
  }
  void TearDown() override {
    io::SetFileSystem(prev_);
    stdfs::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static constexpr int kInserts = 8;

  // Runs the workload, counting how many mutations were acknowledged
  // (an OK return means the record was fsync-durable before applying).
  // Stops at the first failure: a real client would not keep issuing
  // mutations into a dead instance.
  static int RunWorkload(Instance* instance) {
    int acked = 0;
    if (!instance->db
             ->Commit(WalRecordType::kSqlStatement,
                      RecordBody("CREATE TABLE log (id INT)"))
             .ok()) {
      return acked;
    }
    ++acked;
    for (int i = 0; i < kInserts; ++i) {
      if (!instance->db
               ->Commit(WalRecordType::kSqlStatement,
                        RecordBody("INSERT INTO log VALUES (" +
                                   std::to_string(i) + ")"))
               .ok()) {
        return acked;
      }
      ++acked;
    }
    return acked;
  }

  // The recovered table must hold exactly 0..R-1 for some R — a strict
  // prefix of the issued mutations — with every acked one present.
  static void CheckPrefix(Instance* instance, int acked, uint64_t k) {
    auto rows = instance->sql.Execute("SELECT id FROM log");
    int recovered = 0;
    if (rows.ok()) {
      recovered = 1;  // CREATE TABLE itself is mutation #1
      std::set<int64_t> ids;
      for (size_t r = 0; r < rows->num_rows(); ++r) {
        ids.insert(rows->column(0).GetInt64(r));
      }
      ASSERT_EQ(ids.size(), rows->num_rows())
          << "duplicate replay at op " << k;
      int64_t expect = 0;
      for (int64_t id : ids) {
        ASSERT_EQ(id, expect) << "hole in recovered prefix at op " << k;
        ++expect;
      }
      recovered += static_cast<int>(ids.size());
    }
    EXPECT_GE(recovered, acked)
        << "acked mutation lost at op " << k << " (recovered " << recovered
        << ")";
    EXPECT_LE(recovered, 1 + kInserts) << "phantom mutation at op " << k;
  }

  // `min_checkpoints`: how many checkpoints the probe run must complete,
  // so that they land inside the kill window.
  void SweepKillAtEveryOp(io::FaultKind kind, uint64_t checkpoint_bytes,
                          const std::string& tag,
                          uint64_t min_checkpoints = 0) {
    DurabilityOptions options;
    options.checkpoint_bytes = checkpoint_bytes;

    // Baseline run to learn the op count of recover + workload.
    io::FaultSpec probe;
    probe.inject_at = 0;
    faulty_->Arm(probe);
    uint64_t checkpoints = 0;
    {
      Instance baseline(Path(tag + "_probe"), options);
      ASSERT_TRUE(baseline.Open().ok());
      ASSERT_EQ(RunWorkload(&baseline), 1 + kInserts);
      checkpoints = baseline.db->stats().checkpoints;
      ASSERT_GE(checkpoints, min_checkpoints);
    }
    uint64_t total_ops = faulty_->ops();
    faulty_->Disarm();
    ASSERT_GT(total_ops, 10u);

    for (uint64_t k = 1; k <= total_ops; ++k) {
      const std::string dir = Path(tag + "_" + std::to_string(k));
      int acked = 0;
      {
        io::FaultSpec spec;
        spec.kind = kind;
        spec.inject_at = k;
        spec.crash = true;
        faulty_->Arm(spec);
        Instance victim(dir, options);
        if (victim.Open().ok()) {
          acked = RunWorkload(&victim);
        }
        faulty_->Disarm();
      }
      // Restart: recovery must succeed cleanly at every crash point.
      Instance restarted(dir, options);
      Status recovered = restarted.Open();
      ASSERT_TRUE(recovered.ok())
          << "crash at op " << k << ": " << recovered.ToString();
      ASSERT_NE(recovered.code(), StatusCode::kDataLoss);
      RecoveryReport report = restarted.db->recovery_report();
      EXPECT_TRUE(report.recovered);
      EXPECT_EQ(report.replay_errors, 0u) << "crash at op " << k;
      CheckPrefix(&restarted, acked, k);
    }
    std::cout << "[ sweep    ] " << tag << ": " << total_ops
              << " crash points across " << checkpoints
              << " checkpoints, every restart recovered\n";
  }

  stdfs::path dir_;
  io::PosixFileSystem posix_;
  std::unique_ptr<io::FaultInjectingFileSystem> faulty_;
  io::FileSystem* prev_ = nullptr;
};

TEST_F(RecoverySweepTest, KillAtEveryOpCleanIoError) {
  SweepKillAtEveryOp(io::FaultKind::kIoError, /*checkpoint_bytes=*/0, "io");
}

TEST_F(RecoverySweepTest, KillAtEveryOpTornWrite) {
  SweepKillAtEveryOp(io::FaultKind::kShortWrite, /*checkpoint_bytes=*/0,
                     "torn");
}

// Same sweep with a tiny checkpoint threshold, so log rotations,
// carry-forward records, checkpoint markers and truncations all land
// inside the kill window.
TEST_F(RecoverySweepTest, KillAtEveryOpAcrossCheckpoints) {
  SweepKillAtEveryOp(io::FaultKind::kShortWrite, /*checkpoint_bytes=*/128,
                     "ckpt", /*min_checkpoints=*/2);
}

// No faults: state accumulates across restarts, checkpoints truncate
// the log, and a post-checkpoint reopen replays only the tail.
TEST_F(RecoverySweepTest, CheckpointTruncatesAndStateAccumulates) {
  const std::string dir = Path("accumulate");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;  // explicit checkpoints only
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.Open().ok());
    ASSERT_EQ(RunWorkload(&a), 1 + kInserts);
    ASSERT_GT(a.db->stats().wal.total_bytes, 0u);
    uint64_t seq_before = a.db->stats().wal.segment_seq;
    ASSERT_TRUE(a.db->Checkpoint().ok());
    EXPECT_EQ(a.db->stats().checkpoints, 1u);
    // The pre-checkpoint segments are gone; only the rotated-to segment
    // (holding the carry-forward records) remains.
    auto segments = io::ListWalSegments(dir + "/wal");
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);
    EXPECT_GT(a.db->stats().wal.segment_seq, seq_before);
    ASSERT_TRUE(a.db->Commit(WalRecordType::kSqlStatement,
                             RecordBody("INSERT INTO log VALUES (100)"))
                    .ok());
  }
  {
    Instance b(dir, options);
    ASSERT_TRUE(b.Open().ok());
    RecoveryReport report = b.db->recovery_report();
    EXPECT_GT(report.checkpoint_lsn, 0u);
    // The nine pre-checkpoint mutations live in the checkpoint (their
    // records were truncated); the log replays only its carry-forward
    // records — the table image, the store's dump and the marker — plus
    // the post-checkpoint insert.
    EXPECT_EQ(report.records_applied, 4u);
    EXPECT_EQ(report.records_skipped, 0u);
    auto rows = b.sql.Execute("SELECT id FROM log");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->num_rows(), static_cast<size_t>(kInserts) + 1);
  }
}

// Semantic-store durability: updates, linked-data loads, and annotation
// publications replay across restarts (via WAL tail and, after a
// checkpoint, via the carry-forward snapshot record).
TEST_F(RecoverySweepTest, StrabonStateSurvivesRestart) {
  const std::string dir = Path("strabon");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  size_t loaded_size = 0;
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.Open().ok());
    ASSERT_TRUE(
        a.db->Commit(WalRecordType::kLoadTurtle,
                     RecordBody("<http://e/s> <http://e/p> <http://e/o> .\n"
                                "<http://e/s> <http://e/p> <http://e/o2> ."))
            .ok());
    ASSERT_TRUE(
        a.db->Commit(WalRecordType::kStrabonUpdate,
                     RecordBody("INSERT DATA { <http://e/s2> <http://e/p> "
                                "<http://e/o> . }"))
            .ok());
    loaded_size = a.strabon.size();
    ASSERT_EQ(loaded_size, 3u);
  }
  {
    Instance b(dir, options);
    ASSERT_TRUE(b.Open().ok());
    EXPECT_EQ(b.strabon.size(), loaded_size);
    // Checkpoint, then restart again: the store now comes back from the
    // carry-forward record alone.
    ASSERT_TRUE(b.db->Checkpoint().ok());
  }
  {
    Instance c(dir, options);
    ASSERT_TRUE(c.Open().ok());
    EXPECT_EQ(c.strabon.size(), loaded_size);
  }
}

/// Every table of `catalog` with its column types and rows.
std::string Render(const storage::Catalog& catalog) {
  std::string out;
  for (const std::string& name : catalog.TableNames()) {
    storage::TablePtr table = *catalog.GetTable(name);
    out += name + ":";
    for (const storage::Field& field : table->schema().fields()) {
      out += " " + field.name + "/" +
             std::to_string(static_cast<int>(field.type));
    }
    out += "\n" + table->ToString(1u << 20);
  }
  return out;
}

void CommitSql(Instance* instance, const std::vector<std::string>& sqls) {
  for (const std::string& sql : sqls) {
    ASSERT_TRUE(
        instance->db->Commit(WalRecordType::kSqlStatement, RecordBody(sql))
            .ok())
        << sql;
  }
}

// A checkpoint carries every catalog table — each column type, NULLs,
// an empty table — and a restart rebuilds the catalog from it alone.
TEST_F(RecoverySweepTest, CheckpointCarriesEveryTable) {
  const std::string dir = Path("carry");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  std::string before;
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.Open().ok());
    CommitSql(&a, {"CREATE TABLE people (name VARCHAR, age BIGINT, "
                   "score DOUBLE, active BOOLEAN)",
                   "INSERT INTO people VALUES ('ada', 36, 1.5, true), "
                   "('bob, jr', NULL, -2.25, false), (NULL, 7, NULL, NULL)",
                   "CREATE TABLE empty (x DOUBLE)"});
    ASSERT_TRUE(a.db->Checkpoint().ok());
    before = Render(a.catalog);
  }
  ASSERT_NE(before.find("bob, jr"), std::string::npos) << before;
  Instance b(dir, options);
  ASSERT_TRUE(b.Open().ok());
  RecoveryReport report = b.db->recovery_report();
  EXPECT_GT(report.checkpoint_lsn, 0u);
  EXPECT_EQ(report.records_skipped, 0u);  // the older segments are gone
  EXPECT_EQ(report.replay_errors, 0u);
  EXPECT_EQ(Render(b.catalog), before);
}

// A table image recovery cannot decode is data loss, never a silently
// dropped table. Logs `image` as table "t" in a well-framed record —
// only the image inside it is unreadable — and requires the restart to
// refuse it with a message naming `reason`.
void ExpectTableImageRefused(const std::string& dir, const std::string& image,
                             const std::string& reason) {
  {
    auto wal = io::WalWriter::Open(dir + "/wal", 1, 0, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        (*wal)
            ->Append(static_cast<uint32_t>(WalRecordType::kCatalogTable),
                     RecordBody("t") + RecordBody(image))
            .ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  Instance instance(dir, DurabilityOptions{});
  Status st = instance.Open();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find(reason), std::string::npos) << st.ToString();
  EXPECT_FALSE(instance.catalog.HasTable("t"));
}

TEST_F(RecoverySweepTest, UnreadableTableImageIsDataLoss) {
  ExpectTableImageRefused(Path("unreadable"), "not a telt image",
                          "not a TELT image");
}

// An image a newer binary wrote arrives intact, so it must hit the
// version guard rather than a checksum.
TEST_F(RecoverySweepTest, NewerTableImageIsDataLoss) {
  storage::Table t{storage::Schema({{"id", storage::ColumnType::kInt64}})};
  t.column(0).AppendInt64(1);
  std::string newer = storage::EncodeTelt(t);
  newer[4] = 99;  // "TELT", then the u32 format version
  ExpectTableImageRefused(Path("newer"), newer, "newer");
}

// A directory whose tables live in the catalog/MANIFEST snapshot of
// earlier releases is refused, not opened without its tables.
TEST_F(RecoverySweepTest, OldCatalogLayoutIsRefused) {
  const std::string dir = Path("old_layout");
  stdfs::create_directories(dir + "/catalog");
  ASSERT_TRUE(io::GetFileSystem()
                  ->WriteFileAtomic(dir + "/catalog/MANIFEST", "#TELCAT1\n")
                  .ok());
  Instance instance(dir, DurabilityOptions{});
  Status st = instance.Open();
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st.ToString();
  EXPECT_NE(st.message().find("catalog/MANIFEST"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(instance.db->durable());
}

// The auto-checkpoint trigger counts the bytes logged since the last
// checkpoint, not the carry-forward that checkpoint wrote: once the
// store's dump alone passes the threshold, writes still do not
// checkpoint one by one — before a restart or after it.
TEST_F(RecoverySweepTest, AutoCheckpointCountsBytesSinceTheLastCheckpoint) {
  const std::string dir = Path("storm");
  DurabilityOptions options;
  options.checkpoint_bytes = 4096;
  std::string turtle;
  for (int i = 0; i < 64; ++i) {
    turtle += "<http://e/s" + std::to_string(i) + "> <http://e/label> \"" +
              std::string(64, 'x') + "\" .\n";
  }
  ASSERT_GT(turtle.size(), options.checkpoint_bytes);
  auto small_writes = [](Instance* instance, int first) {
    for (int i = first; i < first + 20; ++i) {
      ASSERT_TRUE(instance->db
                      ->Commit(WalRecordType::kStrabonUpdate,
                               RecordBody("INSERT DATA { <http://e/w" +
                                          std::to_string(i) +
                                          "> <http://e/p> <http://e/o> . }"))
                      .ok());
    }
  };
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.Open().ok());
    ASSERT_TRUE(
        a.db->Commit(WalRecordType::kLoadTurtle, RecordBody(turtle)).ok());
    small_writes(&a, 0);
    EXPECT_GE(a.db->stats().checkpoints, 1u);
    EXPECT_LE(a.db->stats().checkpoints, 2u);
  }
  Instance b(dir, options);
  ASSERT_TRUE(b.Open().ok());
  small_writes(&b, 20);
  EXPECT_LE(b.db->stats().checkpoints, 1u);
  EXPECT_EQ(b.strabon.size(), 64u + 40u);
}

/// The fault injector, plus one rule: the first RemoveFile fails with an
/// IoError, as a disk may refuse one unlink; no crash.
class FirstRemovalFails : public io::FaultInjectingFileSystem {
 public:
  using FaultInjectingFileSystem::FaultInjectingFileSystem;
  Status RemoveFile(const std::string& path) override {
    if (!failed_) {
      failed_ = true;
      return Status::IoError("injected: removing '" + path + "' fails");
    }
    return FaultInjectingFileSystem::RemoveFile(path);
  }

 private:
  bool failed_ = false;
};

// A checkpoint whose truncation stopped midway: its marker committed it,
// so the old segment that survived is never read again — not even when
// it is damaged — and a triple deleted before the checkpoint stays
// deleted.
TEST_F(RecoverySweepTest, CheckpointWhoseTruncationStoppedMidway) {
  const std::string dir = Path("stopped_truncation");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  const std::string triple = "<http://e/a> <http://e/p> \"1\" .";
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.Open().ok());
    ASSERT_TRUE(a.db->Commit(WalRecordType::kStrabonUpdate,
                             RecordBody("INSERT DATA { " + triple + " }"))
                    .ok());
  }
  {
    FirstRemovalFails fs(&posix_);
    io::ScopedFileSystem scoped(&fs);
    Instance b(dir, options);
    ASSERT_TRUE(b.Open().ok());
    ASSERT_TRUE(b.db->Commit(WalRecordType::kStrabonUpdate,
                             RecordBody("DELETE DATA { " + triple + " }"))
                    .ok());
    ASSERT_EQ(b.strabon.size(), 0u);
    // Open never appends to an existing segment: two old ones now.
    auto segments = io::ListWalSegments(dir + "/wal");
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 2u);
    EXPECT_TRUE(b.db->Checkpoint().ok());
    // The first removal failed, the second went through.
    segments = io::ListWalSegments(dir + "/wal");
    ASSERT_TRUE(segments.ok());
    EXPECT_EQ(segments->size(), 2u);
  }
  // Damage the surviving pre-checkpoint segment: its magic no longer
  // names a WAL segment.
  auto segments = io::ListWalSegments(dir + "/wal");
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  auto garbage = io::GetFileSystem()->ReadFile(segments->front());
  ASSERT_TRUE(garbage.ok());
  ASSERT_TRUE(io::GetFileSystem()
                  ->WriteFileAtomic(segments->front(),
                                    "XXXX" + garbage->substr(4))
                  .ok());
  Instance c(dir, options);
  Status reopened = c.Open();
  ASSERT_TRUE(reopened.ok()) << reopened.ToString();
  EXPECT_EQ(c.db->recovery_report().wal_segments, 1u);
  EXPECT_EQ(c.db->recovery_report().replay_errors, 0u);
  EXPECT_EQ(c.strabon.size(), 0u)
      << "a triple deleted before the checkpoint came back";
}

// Crash at every op of a checkpoint taken after the catalog's table set
// changed (a table dropped, one rewritten, one created): whatever part
// of the checkpoint reached disk, recovery yields exactly the
// acknowledged catalog — no dropped table returns, no table mixes two
// versions.
TEST_F(RecoverySweepTest, CheckpointSweepNeverMixesTableSets) {
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  auto prepare = [](Instance* instance) {
    ASSERT_TRUE(instance->Open().ok());
    CommitSql(instance, {"CREATE TABLE alpha (id INT)",
                         "INSERT INTO alpha VALUES (0)",
                         "CREATE TABLE beta (id INT)",
                         "INSERT INTO beta VALUES (100)"});
    ASSERT_TRUE(instance->db->Checkpoint().ok());
    CommitSql(instance, {"DROP TABLE alpha", "DELETE FROM beta",
                         "INSERT INTO beta VALUES (1000)",
                         "CREATE TABLE zeta (id INT)",
                         "INSERT INTO zeta VALUES (2000)"});
  };
  std::string acked;
  uint64_t total_ops = 0;
  {
    Instance baseline(Path("sets_probe"), options);
    ASSERT_NO_FATAL_FAILURE(prepare(&baseline));
    acked = Render(baseline.catalog);
    io::FaultSpec probe;
    probe.inject_at = 0;
    faulty_->Arm(probe);
    ASSERT_TRUE(baseline.db->Checkpoint().ok());
    total_ops = faulty_->ops();
    faulty_->Disarm();
  }
  ASSERT_EQ(acked.find("alpha"), std::string::npos) << acked;
  ASSERT_GT(total_ops, 6u);
  for (uint64_t k = 1; k <= total_ops; ++k) {
    const std::string dir = Path("sets_" + std::to_string(k));
    {
      Instance victim(dir, options);
      ASSERT_NO_FATAL_FAILURE(prepare(&victim));
      io::FaultSpec spec;
      spec.kind = io::FaultKind::kShortWrite;
      spec.inject_at = k;
      spec.crash = true;
      faulty_->Arm(spec);
      (void)victim.db->Checkpoint();
      faulty_->Disarm();
    }
    Instance restarted(dir, options);
    Status recovered = restarted.Open();
    ASSERT_TRUE(recovered.ok())
        << "crash at op " << k << ": " << recovered.ToString();
    EXPECT_EQ(restarted.db->recovery_report().replay_errors, 0u)
        << "crash at op " << k;
    EXPECT_EQ(Render(restarted.catalog), acked) << "crash at op " << k;
  }
  std::cout << "[ sweep    ] sets: " << total_ops
            << " crash points, every restart recovered the acked catalog\n";
}

// A torn tail (simulating a crash mid-append without fault injection:
// truncate the last segment mid-record) is dropped, counted, and not an
// error; flipping a byte in the MIDDLE of the log is data loss.
TEST_F(RecoverySweepTest, TornTailToleratedMidLogCorruptionFatal) {
  const std::string dir = Path("tail");
  DurabilityOptions options;
  options.checkpoint_bytes = 0;
  {
    Instance a(dir, options);
    ASSERT_TRUE(a.Open().ok());
    ASSERT_EQ(RunWorkload(&a), 1 + kInserts);
  }
  auto segments = io::ListWalSegments(dir + "/wal");
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  const std::string segment = segments->back();
  auto original = io::GetFileSystem()->ReadFile(segment);
  ASSERT_TRUE(original.ok());

  // Torn tail: chop into the last record's frame.
  ASSERT_TRUE(io::GetFileSystem()
                  ->WriteFileAtomic(segment,
                                    original->substr(0, original->size() - 3))
                  .ok());
  {
    Instance b(dir, options);
    ASSERT_TRUE(b.Open().ok());
    RecoveryReport report = b.db->recovery_report();
    EXPECT_EQ(report.tail_records_dropped, 1u);
    EXPECT_EQ(report.records_applied, static_cast<uint64_t>(kInserts));
    auto rows = b.sql.Execute("SELECT id FROM log");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->num_rows(), static_cast<size_t>(kInserts) - 1);
  }

  // Mid-log corruption: flip a byte inside the FIRST record's payload
  // (offset 16 = segment header + frame header), so the CRC mismatch is
  // followed by further records — corruption, not a torn tail.
  std::string corrupt = *original;
  corrupt[20] ^= 0x40;
  ASSERT_TRUE(io::GetFileSystem()->WriteFileAtomic(segment, corrupt).ok());
  {
    Instance c(dir, options);
    Status st = c.Open();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  }
}

// The facade end to end: Open() recovers, Sql() routes mutations
// through the WAL, sys.wal reports the durability state, and a reopened
// observatory sees the acked mutations.
TEST_F(RecoverySweepTest, ObservatoryOpenRoutesAndReports) {
  const std::string dir = Path("veo");
  {
    core::VirtualEarthObservatory veo;
    DurabilityOptions options;
    options.checkpoint_bytes = 0;
    ASSERT_TRUE(veo.Open(dir, options).ok());
    ASSERT_TRUE(veo.durable());
    ASSERT_TRUE(veo.Sql("CREATE TABLE fires (id INT)").ok());
    ASSERT_TRUE(veo.Sql("INSERT INTO fires VALUES (7)").ok());
    ASSERT_TRUE(
        veo.LoadLinkedData("<http://e/f7> <http://e/sev> \"high\" .").ok());

    auto wal = veo.Sql("SELECT appends_total, recovered FROM sys.wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->num_rows(), 1u);
    EXPECT_GE(wal->column(0).GetInt64(0), 2);
    EXPECT_EQ(wal->column(1).GetInt64(0), 1);
    EXPECT_EQ(veo.Open(dir).code(), StatusCode::kInternal);  // once only
  }
  {
    core::VirtualEarthObservatory veo;
    size_t ontology_triples = veo.strabon().size();
    ASSERT_TRUE(veo.Open(dir).ok());
    auto rows = veo.Sql("SELECT id FROM fires");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->num_rows(), 1u);
    EXPECT_EQ(rows->column(0).GetInt64(0), 7);
    EXPECT_EQ(veo.strabon().size(), ontology_triples + 1);
    RecoveryReport report = veo.recovery_report();
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.records_applied, 3u);
  }
}

// ---------------------------------------------------------------------------
// The fire chain and Refine on the one write path
// ---------------------------------------------------------------------------

/// Writes a 32x32 scene with coast and sun glint to `archive` as raster
/// "coast" and answers its coastline Turtle. The threshold chain's
/// product of it has hotspots that refinement clips (its first update)
/// and hotspots it rejects (its second).
std::string WriteCoastScene(const std::string& archive) {
  eo::SceneSpec spec;
  spec.width = 32;
  spec.height = 32;
  spec.seed = 1;
  spec.num_fires = 3;
  spec.num_glints = 3;
  spec.name = "coast";
  auto scene = eo::GenerateScene(spec);
  EXPECT_TRUE(scene.ok());
  stdfs::create_directories(archive);
  EXPECT_TRUE(
      vault::WriteTer(scene->ToTerRaster(), archive + "/coast.ter").ok());
  auto coastline = linkeddata::GenerateCoastline(*scene);
  EXPECT_TRUE(coastline.ok());
  return coastline.ok() ? *coastline : "";
}

noa::ChainConfig CoastChainConfig(noa::ClassifierKind kind,
                                  const std::string& output_dir) {
  noa::ChainConfig config;
  config.classifier.kind = kind;
  config.classifier.threshold_kelvin = 315.0;
  config.output_dir = output_dir;
  stdfs::create_directories(output_dir);
  return config;
}

/// What `product` left in `veo`: its `products` rows, then the sorted
/// N-Triples of every triple about the product or one of its hotspots,
/// with `output_dir` (which the .vec path names) replaced by "<out>".
std::vector<std::string> ProductImage(core::VirtualEarthObservatory& veo,
                                      const std::string& product,
                                      const std::string& output_dir) {
  auto neutral = [&](std::string text) {
    for (size_t at; (at = text.find(output_dir)) != std::string::npos;) {
      text.replace(at, output_dir.size(), "<out>");
    }
    return text;
  };
  std::vector<std::string> image;
  auto products = veo.catalog().GetTable("products");
  if (products.ok()) {
    const storage::Table& table = **products;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (table.Get(r, 0).AsString() != product) continue;
      std::string row = "row";
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row += " " + table.Get(r, c).ToString();
      }
      image.push_back(neutral(row));
    }
  }
  const std::string ns(eo::kNoaNs);
  const std::string product_iri = ns + "product/" + product;
  const std::string hotspot_prefix = ns + "hotspot/" + product + "/";
  const auto& dict = veo.strabon().store().dict();
  std::vector<std::string> triples;
  for (const rdf::Triple& t :
       veo.strabon().store().Match(rdf::TriplePattern{})) {
    const std::string& subject = dict.At(t.s).lexical;
    if (subject != product_iri && subject.rfind(hotspot_prefix, 0) != 0) {
      continue;
    }
    triples.push_back(neutral(dict.At(t.s).ToNTriples() + " " +
                              dict.At(t.p).ToNTriples() + " " +
                              dict.At(t.o).ToNTriples()));
  }
  std::sort(triples.begin(), triples.end());
  image.insert(image.end(), triples.begin(), triples.end());
  return image;
}

// A crash at every file-system op of a durable observatory that attaches
// a raster, loads the coastline, runs the fire chain with a .vec export
// and refines the product, then a restart: the product is wholly present
// (its `products` row, its triples and every hotspot triple) or wholly
// absent, and present whenever the chain answered OK; Refine's two
// updates are a prefix, both present whenever Refine answered OK.
TEST_F(RecoverySweepTest, FireChainAndRefineSurviveEveryCrashPoint) {
  const std::string archive = Path("coast_archive");
  const std::string coastline = WriteCoastScene(archive);
  const DurabilityOptions options = DurabilityOptions::FromEnv();
  const auto kind = noa::ClassifierKind::kThreshold;

  // The states refinement may leave, from runs without a log: published
  // (1), first update applied (2), both applied (3).
  const std::string ref_out = Path("coast_ref") + "/vec";
  std::vector<std::vector<std::string>> states(4);
  std::string product;
  {
    core::VirtualEarthObservatory ref;
    ASSERT_TRUE(ref.AttachArchive(archive).ok());
    ASSERT_TRUE(ref.LoadLinkedData(coastline).ok());
    auto chain = ref.RunFireChain("coast", CoastChainConfig(kind, ref_out));
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    product = chain->product_id;
    states[1] = ProductImage(ref, product, ref_out);
    auto report = ref.Refine(product);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(report->hotspots_refined, 0u);
    ASSERT_GT(report->hotspots_removed, 0u);
    states[3] = ProductImage(ref, product, ref_out);

    core::VirtualEarthObservatory half;
    ASSERT_TRUE(half.AttachArchive(archive).ok());
    ASSERT_TRUE(half.LoadLinkedData(coastline).ok());
    ASSERT_TRUE(
        half.RunFireChain("coast", CoastChainConfig(kind, ref_out)).ok());
    ASSERT_TRUE(half.StSparqlUpdate(report->statements[0]).ok());
    states[2] = ProductImage(half, product, ref_out);
  }
  ASSERT_FALSE(states[1].empty());
  ASSERT_NE(states[1], states[2]);
  ASSERT_NE(states[2], states[3]);

  struct Acked {
    bool coastline = false, chain = false, refine = false;
  };
  auto workload = [&](core::VirtualEarthObservatory& veo,
                      const std::string& dir, const std::string& out) {
    Acked acked;
    if (!veo.Open(dir, options).ok() || !veo.AttachArchive(archive).ok()) {
      return acked;
    }
    acked.coastline = veo.LoadLinkedData(coastline).ok();
    if (!acked.coastline) return acked;
    auto chain = veo.RunFireChain("coast", CoastChainConfig(kind, out));
    acked.chain = chain.ok();
    if (!acked.chain) return acked;
    acked.refine = veo.Refine(chain->product_id).ok();
    return acked;
  };

  io::FaultSpec probe;
  probe.inject_at = 0;
  faulty_->Arm(probe);
  {
    core::VirtualEarthObservatory baseline;
    Acked acked = workload(baseline, Path("coast_probe"),
                           Path("coast_probe") + "/vec");
    ASSERT_TRUE(acked.refine);
  }
  const uint64_t total_ops = faulty_->ops();
  faulty_->Disarm();
  ASSERT_GT(total_ops, 10u);

  int seen[4] = {0, 0, 0, 0};
  for (uint64_t k = 1; k <= total_ops; ++k) {
    const std::string dir = Path("coast_" + std::to_string(k));
    const std::string out = dir + "/vec";
    Acked acked;
    {
      io::FaultSpec spec;
      spec.kind = io::FaultKind::kShortWrite;
      spec.inject_at = k;
      spec.crash = true;
      faulty_->Arm(spec);
      core::VirtualEarthObservatory victim;
      acked = workload(victim, dir, out);
      faulty_->Disarm();
    }
    core::VirtualEarthObservatory restarted;
    Status recovered = restarted.Open(dir, options);
    ASSERT_TRUE(recovered.ok())
        << "crash at op " << k << ": " << recovered.ToString();
    EXPECT_EQ(restarted.recovery_report().replay_errors, 0u)
        << "crash at op " << k;
    const std::vector<std::string> image =
        ProductImage(restarted, product, out);
    int state = image.empty() ? 0 : -1;
    for (int i = 1; i <= 3; ++i) {
      if (image == states[i]) state = i;
    }
    ASSERT_NE(state, -1) << "crash at op " << k
                         << ": a partial product or refinement survived";
    ++seen[state];
    if (acked.chain) {
      EXPECT_GE(state, 1) << "acked product lost at op " << k;
    }
    if (acked.refine) {
      EXPECT_EQ(state, 3) << "acked update lost at op " << k;
    }
    if (acked.coastline) {
      auto sea = restarted.StSparql("ASK { ?s a noa:Sea }");
      ASSERT_TRUE(sea.ok()) << sea.status().ToString();
      EXPECT_EQ(sea->num_rows(), 1u) << "acked coastline lost at op " << k;
    }
  }
  EXPECT_GT(seen[0], 0);
  EXPECT_GT(seen[3], 0);
  std::cout << "[ sweep    ] chain: " << total_ops << " crash points; "
            << "restarts found the product absent " << seen[0]
            << ", published " << seen[1] << ", half refined " << seen[2]
            << " and refined " << seen[3] << " times\n";
}

// ---------------------------------------------------------------------------
// One write path in both modes
// ---------------------------------------------------------------------------

/// Two annotation sets over one small scene, for publish and republish.
const std::vector<mining::AnnotationService>& AnnotationServices() {
  static const std::vector<mining::AnnotationService> services = [] {
    eo::SceneSpec spec;
    spec.width = 64;
    spec.height = 64;
    spec.num_fires = 2;
    std::vector<mining::AnnotationService> out(2);
    auto patches = mining::CutPatches(*eo::GenerateScene(spec), 16);
    EXPECT_TRUE(patches.ok());
    EXPECT_TRUE(out[0].Annotate(*patches, 3, 1).ok());
    EXPECT_TRUE(out[1].Annotate(*patches, 4, 2).ok());
    return out;
  }();
  return services;
}

/// The coast scene's archive and coastline, and where the mix's chain
/// runs export their products.
struct CoastMix {
  std::string archive;
  std::string coastline;
  std::string output_dir;
};

/// One seeded mix of writes through the facade — SQL CREATE, INSERT,
/// UPDATE and DELETE, stSPARQL INSERT DATA and DELETE/INSERT WHERE,
/// Turtle loads, annotation publish and delete, a vault attach, and a
/// fire-chain run and its Refine a quarter and three quarters through —
/// with `midway` run once halfway through.
void ApplyWriteMix(core::VirtualEarthObservatory& veo, uint64_t seed,
                   const CoastMix& coast,
                   const std::function<void()>& midway) {
  constexpr int kWrites = 120;
  std::mt19937_64 rng(seed);
  auto pick = [&](uint64_t n) { return static_cast<int>(rng() % n); };
  ASSERT_TRUE(veo.Sql("CREATE TABLE mix (id INT, v DOUBLE, s VARCHAR)").ok());
  ASSERT_TRUE(veo.AttachArchive(coast.archive).ok());
  ASSERT_TRUE(veo.LoadLinkedData(coast.coastline).ok());
  auto chain_and_refine = [&](noa::ClassifierKind kind) {
    auto chain = veo.RunFireChain(
        "coast", CoastChainConfig(kind, coast.output_dir));
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    ASSERT_FALSE(chain->hotspots.empty());
    auto report = veo.Refine(chain->product_id);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  };
  const std::string ex = "PREFIX ex: <http://example.org/> ";
  for (int w = 0; w < kWrites; ++w) {
    if (w == kWrites / 2) midway();
    if (w == kWrites / 4) chain_and_refine(noa::ClassifierKind::kThreshold);
    if (w == 3 * kWrites / 4) {
      chain_and_refine(noa::ClassifierKind::kContextual);
    }
    const std::string n = std::to_string(w);
    const std::string k = std::to_string(pick(7));
    Status st = Status::OK();
    switch (pick(8)) {
      case 0:
        st = veo.Sql("INSERT INTO mix VALUES (" + n + ", " + k + ".25, 's" +
                     k + "'), (" + std::to_string(w + 1000) + ", -" + k +
                     ".5, 't" + n + "')")
                 .status();
        break;
      case 1:
        st = veo.Sql("UPDATE mix SET v = v * 2 + " + k +
                     ", s = 'u" + n + "' WHERE id % 7 = " + k)
                 .status();
        break;
      case 2:
        st = veo.Sql("DELETE FROM mix WHERE id % 11 = " + k).status();
        break;
      case 3:
        st = veo.StSparql(ex + "INSERT DATA { ex:s" + n + " ex:p ex:o" + k +
                          " ; ex:at \"POINT (" + n + " " + k +
                          ")\"^^<http://strdf.di.uoa.gr/ontology#WKT> }")
                 .status();
        break;
      case 4:
        st = veo.StSparql(ex + "DELETE { ?s ex:p ex:o" + k +
                          " } INSERT { ?s ex:q ex:o" + k + " ; ex:w " + n +
                          " } WHERE { ?s ex:p ex:o" + k + " }")
                 .status();
        break;
      case 5:
        st = veo.LoadLinkedData("@prefix ex: <http://example.org/> .\n"
                                "ex:t" + n + " ex:r ex:s" + k +
                                " ; ex:label \"turtle " + n + "\" .\n")
                 .status();
        break;
      case 6:
        st = veo.PublishAnnotations(AnnotationServices()[pick(2)],
                                    "prod" + std::to_string(pick(3)))
                 .status();
        break;
      default:
        st = veo.DeleteAnnotations("prod" + std::to_string(pick(3))).status();
        break;
    }
    ASSERT_TRUE(st.ok()) << "write " << w << ": " << st.ToString();
  }
}

/// The store's triples as sorted N-Triples lines: the store's content
/// whatever ids its dictionary gave the terms.
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

/// Every catalog table, rendered in full.
std::string CatalogImage(core::VirtualEarthObservatory& veo) {
  std::string image;
  for (const std::string& name : veo.catalog().TableNames()) {
    auto rows = veo.Sql("SELECT * FROM " + name);
    EXPECT_TRUE(rows.ok()) << name << ": " << rows.status().ToString();
    image += name + "\n" + (rows.ok() ? rows->ToString(1u << 30) : "");
  }
  return image;
}

using WritePathTest = RecoverySweepTest;

// Live apply and replay are one function: the same mix leaves an
// in-memory observatory, a durable one checkpointed midway, and that
// durable one reopened in one state.
TEST_F(WritePathTest, OneMixOneStateInEveryMode) {
  const std::string dir = Path("both_modes");
  const CoastMix coast{Path("mix_archive"),
                       WriteCoastScene(Path("mix_archive")),
                       Path("mix_out")};
  // Under TELEIOS_WAL_CHECKPOINT_BYTES automatic checkpoints land in the
  // mix as well.
  const DurabilityOptions options = DurabilityOptions::FromEnv();
  core::VirtualEarthObservatory memory;
  ApplyWriteMix(memory, 24, coast, [] {});
  core::VirtualEarthObservatory durable;
  ASSERT_TRUE(durable.Open(dir, options).ok());
  ApplyWriteMix(durable, 24, coast,
                [&] { ASSERT_TRUE(durable.Checkpoint().ok()); });
  ASSERT_GE(durable.durability_stats().checkpoints, 1u);
  core::VirtualEarthObservatory reopened;
  ASSERT_TRUE(reopened.Open(dir, options).ok());
  EXPECT_EQ(reopened.recovery_report().replay_errors, 0u);

  // The reopened store re-interned the checkpoint's carry-forward dump
  // in dump order, so it holds the same triples under other term ids;
  // ToTurtle orders triples by their terms' text, not their ids.
  EXPECT_EQ(durable.strabon().ToTurtle(), memory.strabon().ToTurtle());
  EXPECT_EQ(reopened.strabon().ToTurtle(), memory.strabon().ToTurtle());
  EXPECT_EQ(SortedTriples(reopened.strabon()),
            SortedTriples(memory.strabon()));
  const std::string catalog = CatalogImage(memory);
  EXPECT_NE(catalog.find("coast-hotspots-contextual"), std::string::npos);
  EXPECT_EQ(CatalogImage(durable), catalog);
  EXPECT_EQ(CatalogImage(reopened), catalog);
}

// Writers only, in three languages at once: a fire-chain batch, whose
// products commit from pool workers, beside facade SQL and stSPARQL
// writers. Each write takes the one writer mutex, so TSan sees no race
// and every acknowledged write lands. No reader runs (reads are not
// synchronized with writes yet).
TEST_F(WritePathTest, ChainBatchBesideSqlAndStSparqlWriters) {
  const std::string archive = Path("batch_archive");
  stdfs::create_directories(archive);
  std::vector<std::string> rasters;
  for (int i = 0; i < 4; ++i) {
    eo::SceneSpec spec;
    spec.width = 32;
    spec.height = 32;
    spec.seed = 10 + static_cast<uint64_t>(i);
    spec.num_fires = 3;
    spec.name = "batch" + std::to_string(i);
    auto scene = eo::GenerateScene(spec);
    ASSERT_TRUE(scene.ok());
    ASSERT_TRUE(vault::WriteTer(scene->ToTerRaster(),
                                archive + "/" + spec.name + ".ter")
                    .ok());
    rasters.push_back(spec.name);
  }
  core::VirtualEarthObservatory veo;
  ASSERT_TRUE(veo.AttachArchive(archive).ok());
  ASSERT_TRUE(veo.Sql("CREATE TABLE w (id INT)").ok());
  constexpr int kWrites = 40;
  Result<noa::ChainResult> batch = Status::Internal("not run");
  std::thread chain([&] {
    batch = veo.RunFireChainBatch(
        rasters, CoastChainConfig(noa::ClassifierKind::kThreshold,
                                  Path("batch_out")));
  });
  std::thread sql([&] {
    for (int i = 0; i < kWrites; ++i) {
      Status st =
          veo.Sql("INSERT INTO w VALUES (" + std::to_string(i) + ")").status();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });
  std::thread sparql([&] {
    for (int i = 0; i < kWrites; ++i) {
      Status st = veo.StSparql("PREFIX ex: <http://example.org/> "
                               "INSERT DATA { ex:w" + std::to_string(i) +
                               " ex:written " + std::to_string(i) + " }")
                      .status();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });
  chain.join();
  sql.join();
  sparql.join();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->failures.empty());
  EXPECT_EQ(batch->product_ids.size(), rasters.size());
  auto products = veo.catalog().GetTable("products");
  ASSERT_TRUE(products.ok());
  EXPECT_EQ((*products)->num_rows(), rasters.size());
  auto rows = veo.catalog().GetTable("w");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)->num_rows(), static_cast<size_t>(kWrites));
  auto written = veo.StSparql(
      "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:written ?n }");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->num_rows(), static_cast<size_t>(kWrites));
  auto hotspots = veo.StSparql(
      "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:derivedFromProduct ?p }");
  ASSERT_TRUE(hotspots.ok()) << hotspots.status().ToString();
  EXPECT_EQ(hotspots->num_rows(), batch->hotspots.size());
}

}  // namespace
}  // namespace teleios
