#include "core/recovery.h"

#include <algorithm>
#include <utility>

#include "common/cancellation.h"
#include "common/strings.h"
#include "governor/memory_budget.h"
#include "io/codec.h"
#include "io/filesystem.h"
#include "mining/annotation.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/persistence.h"

namespace teleios::core {

namespace {

// Record bodies are io/codec-framed. LoadTurtle, kStrabonSnapshot and
// kCatalogTable payloads can exceed ByteReader's default string cap; the
// WAL layer already bounds a whole record at kMaxWalRecordLen, so that
// is the right cap here too.
constexpr size_t kMaxBodyStr = io::kMaxWalRecordLen;

std::string EncodeQuarantineBody(const std::string& name,
                                 const Status& sticky) {
  std::string body;
  io::PutStr(&body, name);
  io::PutU32(&body, static_cast<uint32_t>(sticky.code()));
  io::PutStr(&body, sticky.message());
  return body;
}

/// The answer of every write but SQL's: one row, one BIGINT `count`.
storage::Table CountTable(size_t count) {
  storage::Table table(
      storage::Schema({{"count", storage::ColumnType::kInt64}}));
  table.column(0).AppendInt64(static_cast<int64_t>(count));
  return table;
}

}  // namespace

std::string RecordBody(std::string_view text) {
  std::string body;
  io::PutStr(&body, text);
  return body;
}

std::string ProductPublishBody(const eo::ProductMetadata& product,
                               std::string_view turtle) {
  std::string body = RecordBody(turtle);
  io::PutStr(&body, product.id);
  io::PutStr(&body, product.satellite);
  io::PutStr(&body, product.sensor);
  io::PutU32(&body, static_cast<uint32_t>(product.level));
  io::PutI64(&body, product.acquisition_time);
  io::PutStr(&body, product.footprint_wkt);
  io::PutStr(&body, product.file_path);
  io::PutStr(&body, product.derived_from);
  return body;
}

DurabilityOptions DurabilityOptions::FromEnv() {
  DurabilityOptions options;
  options.checkpoint_bytes =
      EnvNumber("TELEIOS_WAL_CHECKPOINT_BYTES", options.checkpoint_bytes);
  return options;
}

DurabilityManager::DurabilityManager(const DurabilityEngines& engines)
    : engines_(engines) {}

DurabilityManager::~DurabilityManager() = default;

Status DurabilityManager::Open(const std::string& dir,
                               const DurabilityOptions& options) {
  MutexLock lock(mu_);
  if (wal_ != nullptr) {
    return Status::Internal("observatory already opened at '" + dir_ + "'");
  }
  dir_ = dir;
  options_ = options;
  return RecoverLocked();
}

bool DurabilityManager::durable() const {
  MutexLock lock(mu_);
  return wal_ != nullptr;
}

std::string DurabilityManager::dir() const {
  MutexLock lock(mu_);
  return dir_;
}

Status DurabilityManager::RecoverLocked() {
  obs::TraceSpan span("recovery.replay");
  io::FileSystem* fs = io::GetFileSystem();
  TELEIOS_RETURN_IF_ERROR(fs->CreateDir(dir_));
  TELEIOS_ASSIGN_OR_RETURN(bool old_layout,
                           fs->FileExists(dir_ + "/catalog/MANIFEST"));
  if (old_layout) {
    return Status::Unimplemented(
        "'" + dir_ + "' keeps its tables in the catalog/MANIFEST snapshot " +
        "layout of earlier releases, which this binary does not read; " +
        "open it with the release that wrote it");
  }

  // Pass 1, newest segment first, stops at the first segment holding a
  // checkpoint marker: its newest marker names the first record to
  // replay, which the same segment holds, because a checkpoint fills one
  // fresh segment. The segments before it are the checkpoint's garbage
  // and are never read. Pass 2 replays from there, counting the bytes
  // logged past the marker towards the next auto-checkpoint.
  TELEIOS_ASSIGN_OR_RETURN(std::vector<std::string> segments,
                           io::ListWalSegments(wal_dir()));
  RecoveryReport report;
  uint64_t since_checkpoint = 0;
  size_t start = segments.size();
  while (start > 0 && report.checkpoint_lsn == 0) {
    --start;
    uint64_t since_marker = 0;
    TELEIOS_RETURN_IF_ERROR(
        io::ReplayWalSegments(
            {segments[start]},
            [&](const io::WalRecord& record) -> Status {
              if (record.type !=
                  static_cast<uint32_t>(WalRecordType::kCheckpoint)) {
                since_marker += record.payload.size() + io::kWalRecordOverhead;
                return Status::OK();
              }
              TELEIOS_ASSIGN_OR_RETURN(
                  Fields marker,
                  Decode(WalRecordType::kCheckpoint, record.payload));
              report.checkpoint_lsn = marker.lsn;
              since_marker = 0;
              return Status::OK();
            })
            .status());
    since_checkpoint += since_marker;
  }
  TELEIOS_ASSIGN_OR_RETURN(
      io::WalReplayStats replay,
      io::ReplayWalSegments(
          std::vector<std::string>(segments.begin() + static_cast<long>(start),
                                   segments.end()),
          [&](const io::WalRecord& record) { return Replay(record, &report); }));
  report.tail_records_dropped = replay.tail_dropped;
  report.wal_segments = replay.segments;
  report.wal_bytes = replay.bytes;
  report.last_lsn = replay.last_lsn;
  report.recovered = true;

  io::WalWriter::Options wal_options;
  wal_options.budget = options_.wal_budget != nullptr
                           ? options_.wal_budget
                           : &governor::ProcessBudget();
  TELEIOS_ASSIGN_OR_RETURN(
      wal_, io::WalWriter::Open(wal_dir(), report.last_lsn + 1,
                                replay.bytes, wal_options));
  report_ = report;
  checkpoint_lsn_ = report.checkpoint_lsn;
  checkpointed_bytes_ = replay.bytes - since_checkpoint;

  obs::Count("teleios_recovery_runs_total");
  obs::Count("teleios_recovery_records_replayed_total",
             report.records_replayed);
  obs::Count("teleios_recovery_records_skipped_total",
             report.records_skipped);
  obs::Count("teleios_recovery_tail_dropped_total",
             report.tail_records_dropped);
  obs::Count("teleios_recovery_replay_errors_total", report.replay_errors);
  obs::PostEvent(
      "recovery.complete",
      {{"dir", dir_},
       {"checkpoint_lsn", std::to_string(report.checkpoint_lsn)},
       {"records_replayed", std::to_string(report.records_replayed)},
       {"records_applied", std::to_string(report.records_applied)},
       {"records_skipped", std::to_string(report.records_skipped)},
       {"tail_records_dropped",
        std::to_string(report.tail_records_dropped)},
       {"replay_errors", std::to_string(report.replay_errors)},
       {"last_lsn", std::to_string(report.last_lsn)}});
  // Make the post-restart history itself durable: a sweep that crashes
  // right after recovery should still show this event in the sink.
  (void)obs::EventLog::Global().SyncSink();
  return Status::OK();
}

Result<DurabilityManager::Fields> DurabilityManager::Decode(
    WalRecordType type, std::string_view body) {
  io::ByteReader reader(body);
  Fields fields;
  bool ok = type == WalRecordType::kCheckpoint
                ? reader.ReadU64(&fields.lsn)
                : reader.ReadStr(&fields.text, kMaxBodyStr);
  switch (type) {
    case WalRecordType::kSqlStatement:
    case WalRecordType::kStrabonUpdate:
    case WalRecordType::kLoadTurtle:
    case WalRecordType::kStrabonSnapshot:
    case WalRecordType::kVaultAttach:
    case WalRecordType::kVaultHeal:
    case WalRecordType::kCheckpoint:
      break;
    case WalRecordType::kAnnotationPublish:
      ok = ok && reader.ReadStr(&fields.second, kMaxBodyStr);
      break;
    case WalRecordType::kProductPublish: {
      eo::ProductMetadata& product = fields.product;
      uint32_t level = 0;
      ok = ok && reader.ReadStr(&product.id, kMaxBodyStr) &&
           reader.ReadStr(&product.satellite, kMaxBodyStr) &&
           reader.ReadStr(&product.sensor, kMaxBodyStr) &&
           reader.ReadU32(&level) &&
           level <= static_cast<uint32_t>(eo::ProductLevel::kL2) &&
           reader.ReadI64(&product.acquisition_time) &&
           reader.ReadStr(&product.footprint_wkt, kMaxBodyStr) &&
           reader.ReadStr(&product.file_path, kMaxBodyStr) &&
           reader.ReadStr(&product.derived_from, kMaxBodyStr);
      product.level = static_cast<eo::ProductLevel>(level);
      break;
    }
    case WalRecordType::kVaultQuarantine:
      ok = ok && reader.ReadU32(&fields.code) &&
           reader.ReadStr(&fields.second, kMaxBodyStr);
      break;
    case WalRecordType::kCatalogTable: {
      std::string_view image;
      ok = ok && reader.ReadStrView(&image, kMaxBodyStr);
      if (!ok) break;
      Result<storage::Table> table = storage::DecodeTelt(image);
      if (!table.ok()) {
        return Status::DataLoss("WAL: image of table '" + fields.text +
                                "': " + table.status().message());
      }
      fields.table = std::make_shared<storage::Table>(std::move(*table));
      break;
    }
    default:
      return Status::DataLoss("WAL: unknown record type " +
                              std::to_string(static_cast<uint32_t>(type)));
  }
  if (!ok || !reader.exhausted()) {
    return Status::DataLoss("WAL: malformed body of record type " +
                            std::to_string(static_cast<uint32_t>(type)));
  }
  return fields;
}

bool DurabilityManager::HasEngine(WalRecordType type) const {
  switch (type) {
    case WalRecordType::kSqlStatement:
      return engines_.sql != nullptr;
    case WalRecordType::kCatalogTable:
      return engines_.catalog != nullptr;
    case WalRecordType::kProductPublish:
      return engines_.catalog != nullptr && engines_.strabon != nullptr;
    case WalRecordType::kCheckpoint:
      return true;
    case WalRecordType::kVaultAttach:
    case WalRecordType::kVaultQuarantine:
    case WalRecordType::kVaultHeal:
      return engines_.vault != nullptr;
    default:
      return engines_.strabon != nullptr;
  }
}

Result<storage::Table> DurabilityManager::Apply(WalRecordType type,
                                                const Fields& fields) {
  Result<size_t> count = size_t{1};
  switch (type) {
    case WalRecordType::kSqlStatement:
      return fields.parsed.sql != nullptr
                 ? engines_.sql->Execute(*fields.parsed.sql)
                 : engines_.sql->Execute(fields.text);
    case WalRecordType::kStrabonUpdate:
      count = fields.parsed.sparql != nullptr
                  ? engines_.strabon->Update(*fields.parsed.sparql)
                  : engines_.strabon->Update(fields.text);
      break;
    case WalRecordType::kLoadTurtle:
    case WalRecordType::kStrabonSnapshot:
      count = engines_.strabon->LoadTurtle(fields.text);
      break;
    case WalRecordType::kAnnotationPublish:
      count = engines_.strabon->Update(
          mining::DeleteAnnotationsUpdate(fields.text));
      if (count.ok()) count = engines_.strabon->LoadTurtle(fields.second);
      break;
    case WalRecordType::kProductPublish:
      // The row first: a `products` table of another shape refuses it,
      // and then no triple of the product is left behind.
      TELEIOS_RETURN_IF_ERROR(
          eo::RegisterProductRow(fields.product, engines_.catalog));
      count = engines_.strabon->LoadTurtle(fields.text);
      break;
    case WalRecordType::kVaultAttach:
      if (Status attached = engines_.vault->RestoreAttachment(fields.text);
          !attached.ok()) {
        count = attached;
      }
      break;
    case WalRecordType::kVaultQuarantine:
      engines_.vault->RestoreQuarantine(
          fields.text, Status(static_cast<StatusCode>(fields.code),
                              fields.second));
      break;
    case WalRecordType::kVaultHeal:
      engines_.vault->ClearQuarantine(fields.text);
      break;
    case WalRecordType::kCatalogTable:
      if (engines_.catalog->HasTable(fields.text)) {
        TELEIOS_RETURN_IF_ERROR(engines_.catalog->DropTable(fields.text));
      }
      TELEIOS_RETURN_IF_ERROR(
          engines_.catalog->CreateTable(fields.text, fields.table));
      break;
    case WalRecordType::kCheckpoint:
      count = size_t{0};
      break;
  }
  if (!count.ok()) return count.status();
  return CountTable(*count);
}

Status DurabilityManager::Replay(const io::WalRecord& record,
                                 RecoveryReport* report) {
  ++report->records_replayed;
  if (record.lsn < report->checkpoint_lsn) {
    ++report->records_skipped;  // the checkpoint replay starts from has it
    return Status::OK();
  }
  const auto type = static_cast<WalRecordType>(record.type);
  // Only undecodable bodies and WAL-layer corruption (handled by the
  // replayer) are fatal. A statement that failed on the live path fails
  // the same deterministic way here (it was logged before it applied),
  // so apply failures are counted, not returned.
  Result<Fields> fields = Decode(type, record.payload);
  if (!fields.ok()) {
    return Status::DataLoss(fields.status().message() + " at LSN " +
                            std::to_string(record.lsn));
  }
  if (!HasEngine(type)) {
    ++report->records_skipped;  // inert here
  } else if (Apply(type, *fields).ok()) {
    ++report->records_applied;
  } else {
    ++report->replay_errors;
  }
  return Status::OK();
}

RecoveryReport DurabilityManager::recovery_report() const {
  MutexLock lock(mu_);
  return report_;
}

Status DurabilityManager::Checkpoint() {
  MutexLock lock(mu_);
  if (wal_ == nullptr) {
    return Status::Internal("observatory is not durable; call Open first");
  }
  return CheckpointLocked();
}

Status DurabilityManager::AppendLocked(WalRecordType type,
                                       std::string_view body) {
  return wal_->Append(static_cast<uint32_t>(type), body).status();
}

Status DurabilityManager::CheckpointLocked() {
  obs::TraceSpan span("wal.checkpoint");
  // Guard against re-entry: carry-forward vault reads fire no hooks,
  // but keep the invariant explicit in case that ever changes.
  if (in_checkpoint_) {
    return Status::Internal("checkpoint already in progress");
  }
  in_checkpoint_ = true;
  uint64_t live_seq = 0;
  Status status = [&]() -> Status {
    // 1. Seal everything logged so far; the checkpoint fills a fresh
    //    segment.
    TELEIOS_RETURN_IF_ERROR(wal_->Rotate());
    live_seq = wal_->segment_seq();
    const uint64_t first_lsn = wal_->last_lsn() + 1;
    // 2. The whole state as carry-forward records. Each table image is
    //    synced on its own, so the log buffers one image at a time.
    if (engines_.catalog != nullptr) {
      for (const std::string& name : engines_.catalog->TableNames()) {
        TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr table,
                                 engines_.catalog->GetTable(name));
        std::string body = RecordBody(name);
        io::PutStr(&body, storage::EncodeTelt(*table));
        TELEIOS_RETURN_IF_ERROR(
            AppendLocked(WalRecordType::kCatalogTable, body));
        TELEIOS_RETURN_IF_ERROR(wal_->Sync());
      }
    }
    if (engines_.vault != nullptr) {
      for (const std::string& path : engines_.vault->AttachedFilePaths()) {
        TELEIOS_RETURN_IF_ERROR(
            AppendLocked(WalRecordType::kVaultAttach, RecordBody(path)));
      }
      for (const auto& [name, sticky] :
           engines_.vault->QuarantineSnapshot()) {
        TELEIOS_RETURN_IF_ERROR(
            AppendLocked(WalRecordType::kVaultQuarantine,
                         EncodeQuarantineBody(name, sticky)));
      }
    }
    if (engines_.strabon != nullptr) {
      TELEIOS_RETURN_IF_ERROR(
          AppendLocked(WalRecordType::kStrabonSnapshot,
                       RecordBody(engines_.strabon->ToTurtle())));
    }
    TELEIOS_RETURN_IF_ERROR(wal_->Sync());
    // 3. The synced marker commits the checkpoint: recovery replays
    //    from `first_lsn` on and never reads an older segment again.
    std::string marker;
    io::PutU64(&marker, first_lsn);
    TELEIOS_RETURN_IF_ERROR(AppendLocked(WalRecordType::kCheckpoint, marker));
    TELEIOS_RETURN_IF_ERROR(wal_->Sync());
    checkpoint_lsn_ = first_lsn;
    return Status::OK();
  }();
  in_checkpoint_ = false;
  if (!status.ok()) {
    obs::Count("teleios_wal_checkpoint_failures_total");
    return status;
  }
  // 4. The older segments are garbage. A segment that survives a failed
  //    removal is never replayed, and the next checkpoint retries it.
  if (!wal_->TruncateBefore(live_seq).ok()) {
    obs::Count("teleios_wal_truncate_failures_total");
  }
  checkpointed_bytes_ = wal_->size_bytes();
  ++checkpoints_;
  obs::Count("teleios_wal_checkpoints_total");
  obs::PostEvent("wal.checkpoint",
                 {{"dir", dir_},
                  {"lsn", std::to_string(checkpoint_lsn_)},
                  {"wal_bytes", std::to_string(wal_->size_bytes())}});
  (void)obs::EventLog::Global().SyncSink();
  return Status::OK();
}

void DurabilityManager::MaybeAutoCheckpointLocked() {
  if (options_.checkpoint_bytes == 0 || in_checkpoint_ || wal_ == nullptr) {
    return;
  }
  if (wal_->size_bytes() < checkpointed_bytes_ + options_.checkpoint_bytes) {
    return;
  }
  // Auto-checkpointing is opportunistic: a failure leaves the log
  // larger than the threshold but loses nothing, so it is counted (in
  // CheckpointLocked) and swallowed rather than failing the mutation
  // that happened to cross the threshold.
  (void)CheckpointLocked();
}

Result<storage::Table> DurabilityManager::Commit(WalRecordType type,
                                                 const std::string& body,
                                                 ParsedBody parsed) {
  // Only Checkpoint writes markers, and nothing is logged that replay
  // could not apply.
  if (type == WalRecordType::kCheckpoint) {
    return Status::InvalidArgument("checkpoint markers are written by "
                                   "Checkpoint only");
  }
  TELEIOS_ASSIGN_OR_RETURN(Fields fields, Decode(type, body));
  fields.parsed = parsed;
  if (!HasEngine(type)) {
    return Status::Internal("no engine attached for WAL record type " +
                            std::to_string(static_cast<uint32_t>(type)));
  }
  MutexLock lock(mu_);
  // A write stopped while it waited for the writer stops here.
  if (const CancellationToken* cancel = CurrentCancel(); cancel != nullptr) {
    TELEIOS_RETURN_IF_ERROR(cancel->Check());
  }
  if (wal_ == nullptr) return Apply(type, fields);
  TELEIOS_RETURN_IF_ERROR(AppendLocked(type, body));
  TELEIOS_RETURN_IF_ERROR(wal_->Sync());
  governor::MemoryBudget commit_budget("wal-apply",
                                       governor::MemoryBudget::kUnlimited);
  governor::ScopedBudget budget_scope(&commit_budget);
  ScopedCancel cancel_scope(nullptr);
  Result<storage::Table> result = Apply(type, fields);
  MaybeAutoCheckpointLocked();
  return result;
}

void DurabilityManager::OnVaultTransition(
    const vault::VaultTransition& transition) {
  std::string body;
  WalRecordType type = WalRecordType::kVaultAttach;
  switch (transition.kind) {
    case vault::VaultTransition::Kind::kAttach:
      io::PutStr(&body, transition.path);
      break;
    case vault::VaultTransition::Kind::kQuarantine:
      type = WalRecordType::kVaultQuarantine;
      body = EncodeQuarantineBody(transition.name, transition.status);
      break;
    case vault::VaultTransition::Kind::kHeal:
      type = WalRecordType::kVaultHeal;
      io::PutStr(&body, transition.name);
      break;
  }
  MutexLock lock(mu_);
  if (wal_ == nullptr) return;  // not recovered yet: nothing to mirror into
  Status mirrored = AppendLocked(type, body);
  if (mirrored.ok()) mirrored = wal_->Sync();
  if (!mirrored.ok()) {
    // The vault change already committed in memory; the next
    // checkpoint's carry-forward re-captures it.
    obs::Count("teleios_wal_vault_mirror_failures_total");
    return;
  }
  MaybeAutoCheckpointLocked();
}

DurabilityStats DurabilityManager::stats() const {
  MutexLock lock(mu_);
  DurabilityStats stats;
  stats.durable = wal_ != nullptr;
  if (wal_ != nullptr) stats.wal = wal_->stats();
  stats.checkpoints = checkpoints_;
  stats.checkpoint_lsn = checkpoint_lsn_;
  stats.recovery = report_;
  return stats;
}

}  // namespace teleios::core
