#ifndef TELEIOS_CORE_RECOVERY_H_
#define TELEIOS_CORE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "governor/memory_budget.h"
#include "io/wal.h"
#include "relational/sql_engine.h"
#include "storage/catalog.h"
#include "strabon/strabon.h"
#include "vault/vault.h"

namespace teleios::core {

/// The logical WAL record catalogue. Records are REDO intents replayed
/// in LSN order at startup, from the newest complete checkpoint on.
enum class WalRecordType : uint32_t {
  /// A mutating SQL statement, re-executed verbatim.
  kSqlStatement = 1,
  /// A SPARQL update, re-run verbatim.
  kStrabonUpdate = 2,
  /// A Turtle document, re-loaded (triple stores deduplicate).
  kLoadTurtle = 3,
  /// An annotation publication: {product_id, rendered turtle}. Apply
  /// deletes the product's previous patches, then loads the turtle
  /// (replace semantics).
  kAnnotationPublish = 4,
  /// A vault attachment by source path; replay re-harvests the header
  /// idempotently (no duplicate metadata rows).
  kVaultAttach = 5,
  /// A raster quarantine: {name, status code, message}. Replay
  /// reinstates the sticky status without touching the file.
  kVaultQuarantine = 6,
  /// A quarantine entry cleared by Heal().
  kVaultHeal = 7,
  /// Carry-forward of the whole semantic store at a checkpoint (full
  /// Turtle dump).
  kStrabonSnapshot = 8,
  /// Carry-forward of one catalog table at a checkpoint:
  /// RecordBody(name) + RecordBody(TELT image). Apply replaces the table
  /// of that name, so an image that equals the replayed state changes
  /// nothing.
  kCatalogTable = 9,
  /// Closes a checkpoint: the u64 LSN of its first record. Written only
  /// by Checkpoint; recovery starts from the newest one on disk.
  kCheckpoint = 10,
};

/// What Open's recovery did, for callers and the crash-sweep harness.
struct RecoveryReport {
  bool recovered = false;          ///< recovery completed
  /// First LSN of the checkpoint replay started from; 0 when the log
  /// held no complete checkpoint and every segment replayed.
  uint64_t checkpoint_lsn = 0;
  uint64_t records_replayed = 0;   ///< decoded intact from the WAL
  uint64_t records_applied = 0;    ///< actually re-applied
  uint64_t records_skipped = 0;    ///< older than checkpoint_lsn
  uint64_t tail_records_dropped = 0;  ///< torn tails dropped (not errors)
  uint64_t replay_errors = 0;      ///< per-record apply failures tolerated
  uint64_t last_lsn = 0;           ///< highest LSN seen anywhere
  uint64_t wal_segments = 0;
  uint64_t wal_bytes = 0;
};

/// Point-in-time durability state for `sys.wal` and tests.
struct DurabilityStats {
  bool durable = false;  ///< a DurabilityManager is open and recovered
  io::WalWriter::Stats wal;
  uint64_t checkpoints = 0;
  /// First LSN of the newest complete checkpoint (0: none yet).
  uint64_t checkpoint_lsn = 0;
  RecoveryReport recovery;
};

/// Knobs for the durability layer.
struct DurabilityOptions {
  /// Auto-checkpoint once this many bytes were logged since the last
  /// checkpoint (or, on a log without one, since its first record); 0
  /// disables auto-checkpointing (explicit Checkpoint() still works).
  /// Default 8 MiB.
  uint64_t checkpoint_bytes = 8ull << 20;
  /// Budget charged for the WAL's append buffer (group-commit batching);
  /// nullptr uses the process budget.
  governor::MemoryBudget* wal_budget = nullptr;

  /// Reads TELEIOS_WAL_CHECKPOINT_BYTES (bytes, k/m/g suffixes; unset
  /// keeps the default, 0 disables).
  static DurabilityOptions FromEnv();
};

/// The engines a DurabilityManager applies records to. All pointers are
/// borrowed and must outlive the manager; strabon and vault may be null
/// (their record types are then refused by Commit and skipped on
/// replay).
struct DurabilityEngines {
  storage::Catalog* catalog = nullptr;
  relational::SqlEngine* sql = nullptr;
  strabon::Strabon* strabon = nullptr;
  vault::DataVault* vault = nullptr;
};

/// The body of a record of one string (every kind but kAnnotationPublish,
/// kVaultQuarantine, kCatalogTable and kCheckpoint). A kAnnotationPublish
/// body is RecordBody(product_id) + RecordBody(turtle).
std::string RecordBody(std::string_view text);

/// A record body's text as its caller already parsed it, for
/// DurabilityManager::Commit: at most one is set, by the record's kind.
struct ParsedBody {
  /// A kSqlStatement's.
  const Result<relational::Statement>* sql = nullptr;
  /// A kStrabonUpdate's.
  const Result<strabon::SparqlStatement>* sparql = nullptr;
};

/// The observatory's one write path: every logical mutation is a record
/// committed here, and the same Apply runs it live and at WAL replay.
/// Without a log, Commit applies under the writer mutex; once Open has
/// rooted it at a directory, it also write-ahead logs, checkpoints and
/// recovers that directory's CRC32C-framed log segments (`<dir>/wal/`,
/// io/wal.h).
///
/// Protocol: append + fsync FIRST (the acknowledgement point), then
/// apply in memory. One mutex spans append+sync+apply+auto-checkpoint,
/// so a checkpoint can never slip between a record's fsync and its
/// apply. Checkpoint = rotate the log, append the whole state as
/// carry-forward records (one TELT image per catalog table, the vault's
/// attachments and quarantine, the semantic store's dump), close them
/// with a kCheckpoint marker, then delete the older segments. Recovery
/// = replay the log in order from the newest marker's checkpoint (every
/// segment when there is none), tolerate a torn tail per segment,
/// surface mid-log corruption as kDataLoss.
class DurabilityManager {
 public:
  explicit DurabilityManager(const DurabilityEngines& engines);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Roots the write path at `dir`: replays the WAL from its newest
  /// complete checkpoint and opens the log, so every later Commit is
  /// durable. Once only; the engines must still be empty. Refuses a
  /// directory that keeps its tables in the `catalog/MANIFEST` layout of
  /// earlier releases. Emits the `recovery.complete` event and
  /// teleios_recovery_* metrics.
  Status Open(const std::string& dir, const DurabilityOptions& options);

  /// True once Open succeeded.
  bool durable() const;

  /// Commits one record: refuses a kCheckpoint, a body that does not
  /// decode or a kind whose engine is missing, then — with a log —
  /// appends and fsyncs it, and applies it with the function replay
  /// uses. Answers SQL's result table, or a one-row BIGINT `count` table
  /// for every other kind. An apply failure propagates, but a logged
  /// record stays logged: replay re-runs the same deterministic apply.
  /// Past the sync nothing may stop or refuse the apply, or the live
  /// state would lack a mutation the log holds: it runs with no
  /// cancellation token and under an unlimited budget of its own.
  /// Without a log the apply runs under the caller's token and budget,
  /// so a stopped write applies nothing. `parsed` is the caller's parse
  /// of the body's text, which the live apply runs instead of parsing it
  /// again (replay parses the logged text).
  Result<storage::Table> Commit(WalRecordType type, const std::string& body,
                                ParsedBody parsed = {});

  /// The report of the Open call (zero-valued before it).
  RecoveryReport recovery_report() const;

  /// Rotate + carry-forward + marker + truncate, unconditionally. The
  /// synced marker commits the checkpoint: a failure to delete an older
  /// segment after it is counted
  /// (teleios_wal_truncate_failures_total) and left to the next
  /// checkpoint, not returned.
  Status Checkpoint();

  /// Vault transition subscriber (install via set_transition_hook):
  /// mirrors attach/quarantine/heal into the log. Best-effort — the
  /// vault change already committed in memory, so a log failure is
  /// counted (teleios_wal_vault_mirror_failures_total) and healed by
  /// the next checkpoint's carry-forward, never propagated.
  void OnVaultTransition(const vault::VaultTransition& transition);

  DurabilityStats stats() const;

  /// The directory Open rooted the log at ("" before it).
  std::string dir() const;

 private:
  /// A decoded record body: one string, two for kAnnotationPublish,
  /// {name, status code, message} for kVaultQuarantine, {name, decoded
  /// table} for kCatalogTable, or an LSN for kCheckpoint.
  struct Fields {
    std::string text;
    uint32_t code = 0;
    std::string second;
    storage::TablePtr table;
    uint64_t lsn = 0;
    /// The text already parsed (Commit's `parsed`).
    ParsedBody parsed;
  };
  static Result<Fields> Decode(WalRecordType type, std::string_view body);
  bool HasEngine(WalRecordType type) const;
  /// The one apply, shared by Commit and replay.
  Result<storage::Table> Apply(WalRecordType type, const Fields& fields)
      TELEIOS_REQUIRES(mu_);
  /// Replay's rules around Apply: skip records older than the checkpoint
  /// replay starts from, and count a failed apply instead of failing.
  Status Replay(const io::WalRecord& record, RecoveryReport* report)
      TELEIOS_REQUIRES(mu_);
  Status RecoverLocked() TELEIOS_REQUIRES(mu_);
  Status CheckpointLocked() TELEIOS_REQUIRES(mu_);
  /// Buffers one record in the log (durable at the next Sync).
  Status AppendLocked(WalRecordType type, std::string_view body)
      TELEIOS_REQUIRES(mu_);
  void MaybeAutoCheckpointLocked() TELEIOS_REQUIRES(mu_);
  std::string wal_dir() const TELEIOS_REQUIRES(mu_) { return dir_ + "/wal"; }

  const DurabilityEngines engines_;

  mutable Mutex mu_;
  std::string dir_ TELEIOS_GUARDED_BY(mu_);
  DurabilityOptions options_ TELEIOS_GUARDED_BY(mu_);
  std::unique_ptr<io::WalWriter> wal_ TELEIOS_GUARDED_BY(mu_);
  RecoveryReport report_ TELEIOS_GUARDED_BY(mu_);
  uint64_t checkpoints_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t checkpoint_lsn_ TELEIOS_GUARDED_BY(mu_) = 0;
  /// The log's size when its newest checkpoint completed: the
  /// auto-checkpoint trigger counts the bytes logged past it.
  uint64_t checkpointed_bytes_ TELEIOS_GUARDED_BY(mu_) = 0;
  bool in_checkpoint_ TELEIOS_GUARDED_BY(mu_) = false;
};

}  // namespace teleios::core

#endif  // TELEIOS_CORE_RECOVERY_H_
