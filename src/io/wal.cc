#include "io/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "io/codec.h"
#include "obs/metrics.h"

namespace teleios::io {

namespace {

constexpr size_t kWalHeaderBytes = 8;   // magic + format version
constexpr size_t kFrameHeaderBytes = 8; // payload length + CRC32C

std::string WalHeader() {
  std::string header(kWalMagic, sizeof(kWalMagic));
  PutU32(&header, kWalFormatVersion);
  return header;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::string EncodeWalFrame(uint64_t lsn, uint32_t type,
                           std::string_view body) {
  std::string payload;
  payload.reserve(12 + body.size());
  PutU64(&payload, lsn);
  PutU32(&payload, type);
  payload.append(body.data(), body.size());

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32c(payload));
  frame += payload;
  return frame;
}

std::string WalSegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal_%010llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseWalSegmentSeq(const std::string& name, uint64_t* seq) {
  constexpr std::string_view kPrefix = "wal_";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() != kPrefix.size() + 10 + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + 10; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

Result<std::vector<std::string>> ListWalSegments(const std::string& dir) {
  auto listed = GetFileSystem()->ListDirectory(dir);
  if (!listed.ok()) {
    // A WAL directory that was never written is an empty log, not an
    // error: the first checkpoint or append creates it.
    if (listed.status().code() == StatusCode::kNotFound) {
      return std::vector<std::string>{};
    }
    return listed.status();
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& path : *listed) {
    uint64_t seq = 0;
    if (ParseWalSegmentSeq(BaseName(path), &seq)) {
      segments.emplace_back(seq, path);
    }
  }
  std::sort(segments.begin(), segments.end());
  std::vector<std::string> paths;
  paths.reserve(segments.size());
  for (auto& [seq, path] : segments) paths.push_back(std::move(path));
  return paths;
}

namespace {

/// Decodes one segment image, invoking `apply` per intact record.
/// `is_crash_tail` marks frames that stop exactly at end-of-file as torn
/// (interrupted append) rather than corrupt; this applies to EVERY
/// segment, not just the newest one, because a failed sync poisons a
/// segment mid-run and the writer rotates past it — the torn record was
/// never acknowledged, so dropping it preserves the durability contract.
Status ReplaySegment(const std::string& path, const std::string& image,
                     const std::function<Status(const WalRecord&)>& apply,
                     WalReplayStats* stats) {
  if (image.size() < kWalHeaderBytes) {
    // The crash interrupted segment creation before the header landed.
    ++stats->tail_dropped;
    return Status::OK();
  }
  if (image.compare(0, sizeof(kWalMagic), kWalMagic, sizeof(kWalMagic)) !=
      0) {
    return Status::DataLoss("WAL segment '" + path +
                            "': bad magic (not a TELEIOS WAL segment)");
  }
  uint32_t version = 0;
  std::memcpy(&version, image.data() + sizeof(kWalMagic), sizeof(version));
  if (version > kWalFormatVersion) {
    return Status::DataLoss(
        "WAL segment '" + path + "': format version " +
        std::to_string(version) + " is newer than this binary (understands <= " +
        std::to_string(kWalFormatVersion) + "); refusing to guess the layout");
  }
  if (version == 0) {
    return Status::DataLoss("WAL segment '" + path +
                            "': corrupt format version 0");
  }

  size_t pos = kWalHeaderBytes;
  while (pos < image.size()) {
    size_t remaining = image.size() - pos;
    if (remaining < kFrameHeaderBytes) {
      ++stats->tail_dropped;  // torn mid-frame-header
      return Status::OK();
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, image.data() + pos, sizeof(len));
    std::memcpy(&crc, image.data() + pos + 4, sizeof(crc));
    if (len > kMaxWalRecordLen) {
      return Status::DataLoss("WAL segment '" + path + "': record length " +
                              std::to_string(len) +
                              " exceeds the 1 GiB frame bound (corrupt "
                              "length field)");
    }
    if (len > remaining - kFrameHeaderBytes) {
      ++stats->tail_dropped;  // torn mid-payload
      return Status::OK();
    }
    std::string_view payload(image.data() + pos + kFrameHeaderBytes, len);
    if (Crc32c(payload) != crc) {
      if (pos + kFrameHeaderBytes + len == image.size()) {
        // The final frame of the segment: a crash can tear exactly this
        // record, so drop it instead of failing recovery.
        ++stats->tail_dropped;
        return Status::OK();
      }
      return Status::DataLoss(
          "WAL segment '" + path + "': checksum mismatch at offset " +
          std::to_string(pos) +
          " with records after it (mid-log corruption, not a torn tail)");
    }
    WalRecord record;
    ByteReader reader(payload);
    if (!reader.ReadU64(&record.lsn) || !reader.ReadU32(&record.type)) {
      // The checksum verified, so these bytes are what the writer wrote
      // — a sub-12-byte payload is a writer bug or hand-crafted damage.
      return Status::DataLoss("WAL segment '" + path +
                              "': record payload at offset " +
                              std::to_string(pos) + " too short for header");
    }
    record.payload.assign(payload.data() + 12, payload.size() - 12);
    TELEIOS_RETURN_IF_ERROR(apply(record));
    ++stats->records;
    stats->last_lsn = std::max(stats->last_lsn, record.lsn);
    pos += kFrameHeaderBytes + len;
  }
  return Status::OK();
}

}  // namespace

Result<WalReplayStats> ReplayWalSegments(
    const std::vector<std::string>& segments,
    const std::function<Status(const WalRecord&)>& apply) {
  WalReplayStats stats;
  for (const std::string& path : segments) {
    TELEIOS_ASSIGN_OR_RETURN(std::string image,
                             GetFileSystem()->ReadFile(path));
    ++stats.segments;
    stats.bytes += image.size();
    TELEIOS_RETURN_IF_ERROR(ReplaySegment(path, image, apply, &stats));
  }
  obs::Count("teleios_wal_replay_records_total", stats.records);
  obs::Count("teleios_wal_replay_tail_dropped_total", stats.tail_dropped);
  return stats;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                   uint64_t next_lsn,
                                                   uint64_t initial_bytes,
                                                   const Options& options) {
  TELEIOS_RETURN_IF_ERROR(GetFileSystem()->CreateDir(dir));
  TELEIOS_ASSIGN_OR_RETURN(std::vector<std::string> segments,
                           ListWalSegments(dir));
  uint64_t next_seq = 1;
  if (!segments.empty()) {
    uint64_t max_seq = 0;
    (void)ParseWalSegmentSeq(BaseName(segments.back()), &max_seq);
    next_seq = max_seq + 1;
  }
  if (next_lsn == 0) next_lsn = 1;
  return std::unique_ptr<WalWriter>(
      new WalWriter(dir, next_seq, next_lsn, initial_bytes, options));
}

WalWriter::WalWriter(std::string dir, uint64_t next_seq, uint64_t next_lsn,
                     uint64_t initial_bytes, const Options& options)
    : dir_(std::move(dir)),
      options_(options),
      seq_(next_seq),
      next_lsn_(next_lsn),
      synced_lsn_(next_lsn - 1),
      total_bytes_(initial_bytes) {}

WalWriter::~WalWriter() {
  MutexLock lock(mu_);
  DropPendingLocked();
  if (file_ != nullptr) {
    // Unsynced bytes were never acknowledged; a failed close loses
    // nothing the durability contract promised.
    (void)file_->Close();
  }
}

Result<uint64_t> WalWriter::Append(uint32_t type, std::string_view body) {
  MutexLock lock(mu_);
  if (poisoned_) {
    // The previous segment's tail may be torn; seal it and move on so
    // new records always land after a clean header.
    if (file_ != nullptr) {
      (void)file_->Close();
      file_ = nullptr;
    }
    poisoned_ = false;
    dir_synced_ = false;
    seq_ += 1;
    segment_bytes_ = 0;
    unsynced_bytes_ = 0;
    ++rotations_total_;
    obs::Count("teleios_wal_rotations_total");
  }
  uint64_t lsn = next_lsn_;
  std::string frame = EncodeWalFrame(lsn, type, body);
  if (options_.budget != nullptr) {
    Status reserved = options_.budget->Reserve(frame.size());
    if (!reserved.ok()) return reserved;
    charged_bytes_ += frame.size();
  }
  pending_ += frame;
  next_lsn_ = lsn + 1;
  ++appends_total_;
  obs::Count("teleios_wal_appends_total");
  return lsn;
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  return SyncLocked();
}

Status WalWriter::OpenSegmentLocked() {
  std::string path = JoinPath(dir_, WalSegmentFileName(seq_));
  auto file = GetFileSystem()->NewWritableFile(path);
  if (!file.ok()) {
    poisoned_ = true;
    return file.status();
  }
  file_ = std::move(*file);
  dir_synced_ = false;
  segment_bytes_ = 0;
  unsynced_bytes_ = 0;
  Status header = file_->Append(WalHeader());
  if (!header.ok()) {
    poisoned_ = true;
    return header;
  }
  unsynced_bytes_ = kWalHeaderBytes;
  return Status::OK();
}

Status WalWriter::SyncLocked() {
  if (pending_.empty()) return Status::OK();
  if (file_ == nullptr) {
    Status opened = OpenSegmentLocked();
    if (!opened.ok()) {
      DropPendingLocked();
      obs::Count("teleios_wal_sync_failures_total");
      return opened;
    }
  }
  Status st = file_->Append(pending_);
  if (st.ok()) {
    unsynced_bytes_ += pending_.size();
    st = file_->Sync();
  }
  if (st.ok() && !dir_synced_) {
    // First fsync of a fresh segment: make the file's directory entry
    // itself durable, or a power failure could drop the whole segment.
    st = GetFileSystem()->SyncDir(dir_);
    if (st.ok()) dir_synced_ = true;
  }
  if (!st.ok()) {
    poisoned_ = true;
    DropPendingLocked();
    obs::Count("teleios_wal_sync_failures_total");
    return st;
  }
  uint64_t synced = unsynced_bytes_;
  total_bytes_ += synced;
  segment_bytes_ += synced;
  unsynced_bytes_ = 0;
  synced_lsn_ = next_lsn_ - 1;
  DropPendingLocked();
  ++syncs_total_;
  obs::Count("teleios_wal_syncs_total");
  obs::Count("teleios_wal_bytes_synced_total", synced);
  obs::SetGauge("teleios_wal_size_bytes", static_cast<double>(total_bytes_));
  return Status::OK();
}

void WalWriter::DropPendingLocked() {
  if (options_.budget != nullptr && charged_bytes_ > 0) {
    options_.budget->Release(charged_bytes_);
  }
  charged_bytes_ = 0;
  pending_.clear();
}

Status WalWriter::Rotate() {
  MutexLock lock(mu_);
  return RotateLocked();
}

Status WalWriter::RotateLocked() {
  TELEIOS_RETURN_IF_ERROR(SyncLocked());
  Status closed = Status::OK();
  if (file_ != nullptr) {
    closed = file_->Close();
    file_ = nullptr;
  }
  poisoned_ = false;
  dir_synced_ = false;
  seq_ += 1;
  segment_bytes_ = 0;
  unsynced_bytes_ = 0;
  ++rotations_total_;
  obs::Count("teleios_wal_rotations_total");
  return closed;
}

Status WalWriter::TruncateBefore(uint64_t seq) {
  MutexLock lock(mu_);
  auto segments = ListWalSegments(dir_);
  if (!segments.ok()) return segments.status();
  Status first_error = Status::OK();
  uint64_t removed = 0;
  for (const std::string& path : *segments) {
    uint64_t file_seq = 0;
    if (!ParseWalSegmentSeq(BaseName(path), &file_seq)) continue;
    if (file_seq >= seq) continue;
    Status st = GetFileSystem()->RemoveFile(path);
    if (!st.ok() && first_error.ok()) {
      first_error = st;
      continue;
    }
    if (st.ok()) ++removed;
  }
  if (removed > 0) {
    Status synced = GetFileSystem()->SyncDir(dir_);
    if (!synced.ok() && first_error.ok()) first_error = synced;
    obs::Count("teleios_wal_truncated_segments_total", removed);
  }
  if (first_error.ok()) {
    // All older segments are gone: durable bytes are exactly what the
    // current segment holds.
    total_bytes_ = segment_bytes_;
    obs::SetGauge("teleios_wal_size_bytes",
                  static_cast<double>(total_bytes_));
  }
  return first_error;
}

WalWriter::Stats WalWriter::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.segment_seq = seq_;
  s.last_lsn = next_lsn_ - 1;
  s.synced_lsn = synced_lsn_;
  s.pending_bytes = pending_.size();
  s.total_bytes = total_bytes_;
  s.appends_total = appends_total_;
  s.syncs_total = syncs_total_;
  s.rotations_total = rotations_total_;
  return s;
}

uint64_t WalWriter::last_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_ - 1;
}

uint64_t WalWriter::size_bytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

uint64_t WalWriter::segment_seq() const {
  MutexLock lock(mu_);
  return seq_;
}

}  // namespace teleios::io
