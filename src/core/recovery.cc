#include "core/recovery.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "governor/memory_budget.h"
#include "io/codec.h"
#include "io/filesystem.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace teleios::core {

namespace {

// Record bodies are io/codec-framed. LoadTurtle and kStrabonSnapshot
// payloads can exceed ByteReader's default string cap; the WAL layer
// already bounds a whole record at kMaxWalRecordLen, so that is the
// right cap here too.
constexpr size_t kMaxBodyStr = io::kMaxWalRecordLen;

std::string EncodeQuarantineBody(const std::string& name,
                                 const Status& sticky) {
  std::string body;
  io::PutStr(&body, name);
  io::PutU32(&body, static_cast<uint32_t>(sticky.code()));
  io::PutStr(&body, sticky.message());
  return body;
}

}  // namespace

DurabilityOptions DurabilityOptions::FromEnv() {
  DurabilityOptions options;
  options.checkpoint_bytes =
      EnvNumber("TELEIOS_WAL_CHECKPOINT_BYTES", options.checkpoint_bytes);
  return options;
}

DurabilityManager::DurabilityManager(const DurabilityEngines& engines,
                                     std::string dir,
                                     const DurabilityOptions& options)
    : engines_(engines), dir_(std::move(dir)), options_(options) {}

DurabilityManager::~DurabilityManager() = default;

Status DurabilityManager::Recover() {
  MutexLock lock(mu_);
  if (wal_ != nullptr) {
    return Status::Internal("durability manager already recovered");
  }
  return RecoverLocked();
}

Status DurabilityManager::RecoverLocked() {
  obs::TraceSpan span("recovery.replay");
  io::FileSystem* fs = io::GetFileSystem();
  TELEIOS_RETURN_IF_ERROR(fs->CreateDir(dir_));

  RecoveryReport report;
  TELEIOS_ASSIGN_OR_RETURN(
      storage::SnapshotMeta meta,
      storage::LoadCatalogSnapshot(snapshot_dir(), engines_.catalog));
  report.snapshot_loaded = meta.loaded;
  report.snapshot_generation = meta.generation;
  report.snapshot_lsn = meta.lsn;
  report.snapshot_tables = meta.tables;

  TELEIOS_ASSIGN_OR_RETURN(
      io::WalReplayStats replay,
      io::ReplayWal(wal_dir(), [&](const io::WalRecord& record) {
        return ApplyRecord(record, &report);
      }));
  report.tail_records_dropped = replay.tail_dropped;
  report.wal_segments = replay.segments;
  report.wal_bytes = replay.bytes;
  report.last_lsn = std::max(replay.last_lsn, meta.lsn);
  report.recovered = true;

  io::WalWriter::Options wal_options;
  wal_options.budget = options_.wal_budget != nullptr
                           ? options_.wal_budget
                           : &governor::ProcessBudget();
  TELEIOS_ASSIGN_OR_RETURN(
      wal_, io::WalWriter::Open(wal_dir(), report.last_lsn + 1,
                                replay.bytes, wal_options));
  report_ = report;
  checkpoint_generation_ = meta.generation;
  checkpoint_lsn_ = meta.lsn;

  obs::Count("teleios_recovery_runs_total");
  obs::Count("teleios_recovery_records_replayed_total",
             report.records_replayed);
  obs::Count("teleios_recovery_records_skipped_total",
             report.records_skipped);
  obs::Count("teleios_recovery_tail_dropped_total",
             report.tail_records_dropped);
  obs::Count("teleios_recovery_replay_errors_total", report.replay_errors);
  obs::SetGauge("teleios_recovery_snapshot_generation",
                static_cast<double>(report.snapshot_generation));
  obs::PostEvent(
      "recovery.complete",
      {{"dir", dir_},
       {"snapshot_generation", std::to_string(report.snapshot_generation)},
       {"snapshot_lsn", std::to_string(report.snapshot_lsn)},
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

Status DurabilityManager::ApplyRecord(const io::WalRecord& record,
                                      RecoveryReport* report) {
  ++report->records_replayed;
  io::ByteReader reader(record.payload);

  // Per-record apply outcomes are tolerated: a statement that failed on
  // the live path fails the same deterministic way here (it was logged
  // before execution), and a record for an engine this deployment lacks
  // is simply inert. Only undecodable bodies and WAL-layer corruption
  // (handled by the replayer) are fatal.
  Status applied = Status::OK();
  bool skipped = false;
  switch (static_cast<WalRecordType>(record.type)) {
    case WalRecordType::kSqlStatement: {
      std::string statement;
      if (!reader.ReadStr(&statement, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss("WAL: malformed kSqlStatement body at LSN " +
                                std::to_string(record.lsn));
      }
      if (record.lsn <= report->snapshot_lsn) {
        skipped = true;  // the snapshot already contains this effect
      } else if (engines_.sql != nullptr) {
        applied = engines_.sql->Execute(statement).status();
      } else {
        skipped = true;
      }
      break;
    }
    case WalRecordType::kStrabonUpdate: {
      std::string update;
      if (!reader.ReadStr(&update, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss("WAL: malformed kStrabonUpdate body at LSN " +
                                std::to_string(record.lsn));
      }
      if (engines_.strabon != nullptr) {
        applied = engines_.strabon->Update(update).status();
      } else {
        skipped = true;
      }
      break;
    }
    case WalRecordType::kLoadTurtle:
    case WalRecordType::kStrabonSnapshot: {
      std::string turtle;
      if (!reader.ReadStr(&turtle, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss("WAL: malformed turtle body at LSN " +
                                std::to_string(record.lsn));
      }
      if (engines_.strabon != nullptr) {
        applied = engines_.strabon->LoadTurtle(turtle).status();
      } else {
        skipped = true;
      }
      break;
    }
    case WalRecordType::kAnnotationPublish: {
      std::string product_id, turtle;
      if (!reader.ReadStr(&product_id, kMaxBodyStr) ||
          !reader.ReadStr(&turtle, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss(
            "WAL: malformed kAnnotationPublish body at LSN " +
            std::to_string(record.lsn));
      }
      if (engines_.strabon != nullptr) {
        applied = engines_.strabon
                      ->Update(mining::DeleteAnnotationsUpdate(product_id))
                      .status();
        if (applied.ok()) {
          applied = engines_.strabon->LoadTurtle(turtle).status();
        }
      } else {
        skipped = true;
      }
      break;
    }
    case WalRecordType::kVaultAttach: {
      std::string path;
      if (!reader.ReadStr(&path, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss("WAL: malformed kVaultAttach body at LSN " +
                                std::to_string(record.lsn));
      }
      if (engines_.vault != nullptr) {
        applied = engines_.vault->RestoreAttachment(path);
      } else {
        skipped = true;
      }
      break;
    }
    case WalRecordType::kVaultQuarantine: {
      std::string name, message;
      uint32_t code = 0;
      if (!reader.ReadStr(&name, kMaxBodyStr) || !reader.ReadU32(&code) ||
          !reader.ReadStr(&message, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss(
            "WAL: malformed kVaultQuarantine body at LSN " +
            std::to_string(record.lsn));
      }
      if (engines_.vault != nullptr) {
        engines_.vault->RestoreQuarantine(
            name, Status(static_cast<StatusCode>(code), std::move(message)));
      } else {
        skipped = true;
      }
      break;
    }
    case WalRecordType::kVaultHeal: {
      std::string name;
      if (!reader.ReadStr(&name, kMaxBodyStr) || !reader.exhausted()) {
        return Status::DataLoss("WAL: malformed kVaultHeal body at LSN " +
                                std::to_string(record.lsn));
      }
      if (engines_.vault != nullptr) {
        engines_.vault->ClearQuarantine(name);
      } else {
        skipped = true;
      }
      break;
    }
    default:
      return Status::DataLoss("WAL: unknown record type " +
                              std::to_string(record.type) + " at LSN " +
                              std::to_string(record.lsn));
  }
  if (skipped) {
    ++report->records_skipped;
  } else if (applied.ok()) {
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
    return Status::Internal(
        "durability manager not recovered; call Recover() first");
  }
  return CheckpointLocked();
}

Status DurabilityManager::CheckpointLocked() {
  obs::TraceSpan span("wal.checkpoint");
  // Guard against re-entry: carry-forward vault reads fire no hooks,
  // but keep the invariant explicit in case that ever changes.
  if (in_checkpoint_) {
    return Status::Internal("checkpoint already in progress");
  }
  in_checkpoint_ = true;
  Status status = [&]() -> Status {
    // 1. Everything logged so far becomes durable, then the snapshot is
    //    stamped with the highest durable LSN it covers.
    TELEIOS_RETURN_IF_ERROR(wal_->Sync());
    uint64_t ckpt_lsn = wal_->stats().synced_lsn;
    storage::SnapshotMeta meta;
    if (engines_.catalog != nullptr) {
      TELEIOS_RETURN_IF_ERROR(storage::SaveCatalogCheckpoint(
          *engines_.catalog, snapshot_dir(), ckpt_lsn, &meta));
    }
    // 2. Seal the old log. From here on, a crash at any point is safe:
    //    the old segments still hold every record the snapshot covers
    //    until the truncation at the end.
    TELEIOS_RETURN_IF_ERROR(wal_->Rotate());
    uint64_t live_seq = wal_->segment_seq();
    // 3. Carry forward state that lives outside the catalog snapshot,
    //    as fresh records in the new segment. These are idempotent
    //    redo intents, so replaying them alongside (or without) the
    //    old log converges.
    if (engines_.vault != nullptr) {
      for (const std::string& path : engines_.vault->AttachedFilePaths()) {
        std::string body;
        io::PutStr(&body, path);
        TELEIOS_RETURN_IF_ERROR(
            wal_->Append(static_cast<uint32_t>(WalRecordType::kVaultAttach),
                         body)
                .status());
      }
      for (const auto& [name, sticky] :
           engines_.vault->QuarantineSnapshot()) {
        TELEIOS_RETURN_IF_ERROR(
            wal_->Append(
                    static_cast<uint32_t>(WalRecordType::kVaultQuarantine),
                    EncodeQuarantineBody(name, sticky))
                .status());
      }
    }
    if (engines_.strabon != nullptr) {
      std::string body;
      io::PutStr(&body, engines_.strabon->ToTurtle());
      TELEIOS_RETURN_IF_ERROR(
          wal_->Append(static_cast<uint32_t>(WalRecordType::kStrabonSnapshot),
                       body)
              .status());
    }
    TELEIOS_RETURN_IF_ERROR(wal_->Sync());
    // 4. Only now are the old segments redundant.
    TELEIOS_RETURN_IF_ERROR(wal_->TruncateBefore(live_seq));
    checkpoint_generation_ = meta.generation;
    checkpoint_lsn_ = ckpt_lsn;
    return Status::OK();
  }();
  in_checkpoint_ = false;
  if (!status.ok()) {
    obs::Count("teleios_wal_checkpoint_failures_total");
    return status;
  }
  ++checkpoints_;
  obs::Count("teleios_wal_checkpoints_total");
  obs::SetGauge("teleios_wal_checkpoint_generation",
                static_cast<double>(checkpoint_generation_));
  obs::PostEvent("wal.checkpoint",
                 {{"dir", dir_},
                  {"generation", std::to_string(checkpoint_generation_)},
                  {"lsn", std::to_string(checkpoint_lsn_)},
                  {"wal_bytes", std::to_string(wal_->size_bytes())}});
  (void)obs::EventLog::Global().SyncSink();
  return Status::OK();
}

void DurabilityManager::MaybeAutoCheckpointLocked() {
  if (options_.checkpoint_bytes == 0 || in_checkpoint_) return;
  if (wal_ == nullptr || wal_->size_bytes() < options_.checkpoint_bytes) {
    return;
  }
  // Auto-checkpointing is opportunistic: a failure leaves the log
  // larger than the threshold but loses nothing, so it is counted (in
  // CheckpointLocked) and swallowed rather than failing the mutation
  // that happened to cross the threshold.
  (void)CheckpointLocked();
}

Result<storage::Table> DurabilityManager::SqlMutation(
    const std::string& statement) {
  if (engines_.sql == nullptr) {
    return Status::Internal("no SQL engine attached");
  }
  std::string body;
  io::PutStr(&body, statement);
  return LogAndApply(WalRecordType::kSqlStatement, body,
                     [&] { return engines_.sql->Execute(statement); });
}

Result<size_t> DurabilityManager::StrabonUpdate(const std::string& update) {
  if (engines_.strabon == nullptr) {
    return Status::Internal("no semantic store attached");
  }
  std::string body;
  io::PutStr(&body, update);
  return LogAndApply(WalRecordType::kStrabonUpdate, body,
                     [&] { return engines_.strabon->Update(update); });
}

Result<size_t> DurabilityManager::LoadTurtle(const std::string& turtle) {
  if (engines_.strabon == nullptr) {
    return Status::Internal("no semantic store attached");
  }
  std::string body;
  io::PutStr(&body, turtle);
  return LogAndApply(WalRecordType::kLoadTurtle, body,
                     [&] { return engines_.strabon->LoadTurtle(turtle); });
}

Result<size_t> DurabilityManager::PublishAnnotations(
    const std::vector<mining::Annotation>& annotations,
    const std::string& product_id) {
  if (engines_.strabon == nullptr) {
    return Status::Internal("no semantic store attached");
  }
  TELEIOS_ASSIGN_OR_RETURN(
      std::string turtle,
      mining::RenderAnnotationsTurtle(annotations, product_id));
  std::string body;
  io::PutStr(&body, product_id);
  io::PutStr(&body, turtle);
  return LogAndApply(
      WalRecordType::kAnnotationPublish, body, [&]() -> Result<size_t> {
        TELEIOS_RETURN_IF_ERROR(
            engines_.strabon
                ->Update(mining::DeleteAnnotationsUpdate(product_id))
                .status());
        return engines_.strabon->LoadTurtle(turtle);
      });
}

Result<size_t> DurabilityManager::DeleteAnnotations(
    const std::string& product_id) {
  return StrabonUpdate(mining::DeleteAnnotationsUpdate(product_id));
}

void DurabilityManager::OnVaultTransition(
    const vault::VaultTransition& transition) {
  std::string body;
  uint32_t type = 0;
  switch (transition.kind) {
    case vault::VaultTransition::Kind::kAttach:
      type = static_cast<uint32_t>(WalRecordType::kVaultAttach);
      io::PutStr(&body, transition.path);
      break;
    case vault::VaultTransition::Kind::kQuarantine:
      type = static_cast<uint32_t>(WalRecordType::kVaultQuarantine);
      body = EncodeQuarantineBody(transition.name, transition.status);
      break;
    case vault::VaultTransition::Kind::kHeal:
      type = static_cast<uint32_t>(WalRecordType::kVaultHeal);
      io::PutStr(&body, transition.name);
      break;
  }
  MutexLock lock(mu_);
  if (wal_ == nullptr) return;  // not recovered yet: nothing to mirror into
  Status mirrored = wal_->Append(type, body).status();
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
  stats.checkpoint_generation = checkpoint_generation_;
  stats.checkpoint_lsn = checkpoint_lsn_;
  stats.recovery = report_;
  return stats;
}

}  // namespace teleios::core
