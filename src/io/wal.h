#ifndef TELEIOS_IO_WAL_H_
#define TELEIOS_IO_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "governor/memory_budget.h"
#include "io/filesystem.h"

namespace teleios::io {

// The TELEIOS write-ahead log: an append-only sequence of CRC32C-framed,
// length-prefixed records spread over numbered segment files
// (`wal_<seq>.log`). Every byte goes through the FileSystem seam, so the
// fault injector covers the log exactly like every other format driver:
// torn writes, ENOSPC, dropped fsyncs and crash-at-k-th-op all apply.
//
// Segment layout:
//   "TWAL" | u32 format version | records...
// Record framing:
//   u32 payload length | u32 CRC32C(payload) | payload
// Record payload:
//   u64 LSN | u32 record type | body bytes
//
// Durability contract: a record is durable once the Sync() that covers
// it returns OK — Append() alone only buffers. Replay tolerance: a
// truncated or bit-flipped record whose frame reaches the end of its
// segment is a torn tail (the crash interrupted the append) — it is
// dropped and counted, never an error. A checksum mismatch strictly
// inside a segment is real corruption and surfaces kDataLoss.

/// One decoded log record.
struct WalRecord {
  uint64_t lsn = 0;
  uint32_t type = 0;
  std::string payload;
};

/// Bytes a segment spends before the first record.
inline constexpr char kWalMagic[4] = {'T', 'W', 'A', 'L'};
inline constexpr uint32_t kWalFormatVersion = 1;
/// Bytes a record's frame adds to its body: u32 length, u32 CRC32C,
/// u64 LSN and u32 type.
inline constexpr uint64_t kWalRecordOverhead = 20;
/// Hard cap on one record's payload; larger lengths are treated as
/// corruption without attempting the allocation.
inline constexpr uint64_t kMaxWalRecordLen = 1ull << 30;

/// Encodes the full on-disk frame (length, checksum, LSN, type, body) —
/// shared by the writer, the replayer's tests, and bench harnesses.
std::string EncodeWalFrame(uint64_t lsn, uint32_t type,
                           std::string_view body);

/// `wal_<seq>.log` for a 10-digit zero-padded sequence number.
std::string WalSegmentFileName(uint64_t seq);
/// Parses a segment file name (base name, not a path); false if `name`
/// is not a WAL segment.
bool ParseWalSegmentSeq(const std::string& name, uint64_t* seq);

/// Full paths of the WAL segments under `dir`, sorted by sequence
/// number.
Result<std::vector<std::string>> ListWalSegments(const std::string& dir);

/// Outcome of a replay pass over every segment in a WAL directory.
struct WalReplayStats {
  uint64_t records = 0;       ///< records decoded and handed to the callback
  uint64_t tail_dropped = 0;  ///< torn-tail records dropped (never an error)
  uint64_t last_lsn = 0;      ///< highest LSN seen (0 when empty)
  uint64_t segments = 0;      ///< segment files visited
  uint64_t bytes = 0;         ///< total segment bytes scanned
};

/// Replays every record of every segment under `dir`, oldest segment
/// first, invoking `apply` per record. A non-OK status from `apply`
/// aborts the replay and is returned as-is. Torn tails (see above) are
/// dropped and counted in the stats; mid-segment corruption returns
/// kDataLoss. A directory with no segments replays zero records.
Result<WalReplayStats> ReplayWal(
    const std::string& dir,
    const std::function<Status(const WalRecord&)>& apply);

/// Append side of the log. Not internally thread-safe beyond its own
/// invariants being lock-protected: callers that need ordered append +
/// sync + apply atomicity (the durability manager) serialize externally.
///
/// Failure discipline: a failed buffer flush or fsync poisons the
/// current segment — its tail may be torn — so the next Append() seals
/// it and rotates to a fresh segment. Records that were buffered when a
/// Sync() failed are dropped (the caller never acknowledged them).
class WalWriter {
 public:
  struct Options {
    /// Pending (appended-but-unsynced) bytes are reserved against this
    /// budget, so group-commit batching is visible to — and bounded by —
    /// the resource governor. nullptr disables charging.
    governor::MemoryBudget* budget = nullptr;
  };

  /// Point-in-time counters for `sys.wal` and the metrics layer.
  struct Stats {
    uint64_t segment_seq = 0;     ///< current segment sequence number
    uint64_t last_lsn = 0;        ///< LSN of the last appended record
    uint64_t synced_lsn = 0;      ///< LSN of the last durable record
    uint64_t pending_bytes = 0;   ///< buffered, not yet synced
    uint64_t total_bytes = 0;     ///< durable log bytes across segments
    uint64_t appends_total = 0;
    uint64_t syncs_total = 0;
    uint64_t rotations_total = 0;
  };

  /// Opens a writer over `dir` (created if needed). Never appends into
  /// an existing segment: a fresh segment with the next free sequence
  /// number starts at the first append, so a torn tail left by a crash
  /// stays inert until checkpointing garbage-collects it. `next_lsn` is
  /// the first LSN to assign (recovery passes last replayed + 1);
  /// `initial_bytes` seeds the size accounting with the bytes already
  /// on disk (the replayer's `WalReplayStats::bytes`).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                 uint64_t next_lsn,
                                                 uint64_t initial_bytes,
                                                 const Options& options);

  ~WalWriter();

  /// Buffers one record and returns its LSN. The record is NOT durable
  /// until the next OK Sync(). Fails with kResourceExhausted when the
  /// budget refuses the buffer growth.
  Result<uint64_t> Append(uint32_t type, std::string_view body);

  /// Group commit: flushes every buffered record to the current segment
  /// and fsyncs it (plus the directory the first time a segment syncs,
  /// so the segment file itself survives a power failure). On failure
  /// the buffered records are dropped and the segment is poisoned — see
  /// the class comment.
  Status Sync();

  /// Seals the current segment and starts the next one. Pending bytes
  /// are synced first; the checkpoint protocol rotates so the carried-
  /// forward state lands in a fresh segment and older ones become
  /// garbage.
  Status Rotate();

  /// Deletes every segment with a sequence number below `seq`
  /// (checkpoint garbage collection). Best-effort per file; the first
  /// error is returned but remaining files are still attempted.
  Status TruncateBefore(uint64_t seq);

  Stats stats() const;
  uint64_t last_lsn() const;
  /// Durable log bytes (total_bytes of stats()).
  uint64_t size_bytes() const;
  uint64_t segment_seq() const;

 private:
  WalWriter(std::string dir, uint64_t next_seq, uint64_t next_lsn,
            uint64_t initial_bytes, const Options& options);

  Status OpenSegmentLocked() TELEIOS_REQUIRES(mu_);
  Status SyncLocked() TELEIOS_REQUIRES(mu_);
  Status RotateLocked() TELEIOS_REQUIRES(mu_);
  void DropPendingLocked() TELEIOS_REQUIRES(mu_);

  const std::string dir_;
  const Options options_;

  mutable Mutex mu_;
  std::unique_ptr<WritableFile> file_ TELEIOS_GUARDED_BY(mu_);
  bool poisoned_ TELEIOS_GUARDED_BY(mu_) = false;
  bool dir_synced_ TELEIOS_GUARDED_BY(mu_) = false;
  uint64_t seq_ TELEIOS_GUARDED_BY(mu_);
  uint64_t next_lsn_ TELEIOS_GUARDED_BY(mu_);
  uint64_t synced_lsn_ TELEIOS_GUARDED_BY(mu_) = 0;
  std::string pending_ TELEIOS_GUARDED_BY(mu_);
  uint64_t charged_bytes_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t total_bytes_ TELEIOS_GUARDED_BY(mu_);
  uint64_t segment_bytes_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t unsynced_bytes_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t appends_total_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t syncs_total_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t rotations_total_ TELEIOS_GUARDED_BY(mu_) = 0;
};

}  // namespace teleios::io

#endif  // TELEIOS_IO_WAL_H_
