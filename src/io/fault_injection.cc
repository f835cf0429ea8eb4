#include "io/fault_injection.h"

#include "obs/metrics.h"

namespace teleios::io {

void FaultInjectingFileSystem::Arm(const FaultSpec& spec) {
  MutexLock lock(mu_);
  spec_ = spec;
  program_.Arm(spec);
  bits_flipped_ = 0;
  rng_ = spec.seed ? spec.seed : 1;
}

void FaultInjectingFileSystem::Disarm() {
  MutexLock lock(mu_);
  program_.Disarm();
}

uint64_t FaultInjectingFileSystem::NextRand() {
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  return rng_ * 0x2545f4914f6cdd1dull;
}

Status FaultInjectingFileSystem::InjectedError(const char* what) {
  return Status::IoError(std::string("injected fault: ") + what);
}

void FaultInjectingFileSystem::ApplyBitFlip(uint8_t* bytes, size_t len) {
  MutexLock lock(mu_);
  bytes[NextRand() % len] ^= static_cast<uint8_t>(1u << (NextRand() % 8));
  ++bits_flipped_;
}

FaultInjectingFileSystem::FaultAction FaultInjectingFileSystem::NextOp(
    OpClass op) {
  MutexLock lock(mu_);
  // The counting mode applies to disabled (inject_at = 0) probe runs
  // too, so a probed op count matches the armed sweep that follows.
  // Uncounted ops still fail once a crash has happened.
  if (spec_.reads_only && op != OpClass::kRead) {
    return program_.crashed() ? FaultAction::kFail : FaultAction::kNone;
  }
  // Flips only corrupt read payloads; other ops pass through.
  bool applies = spec_.kind != FaultKind::kBitFlip || op == OpClass::kRead;
  switch (program_.Next(applies)) {
    case FaultProgram::Outcome::kPass:
      return FaultAction::kNone;
    case FaultProgram::Outcome::kCrashed:
      return FaultAction::kFail;
    case FaultProgram::Outcome::kFault:
      break;
  }
  obs::Count("teleios_io_faults_injected_total");
  switch (spec_.kind) {
    case FaultKind::kIoError:
      break;
    case FaultKind::kShortWrite:
      if (op == OpClass::kAppend) return FaultAction::kShortWrite;
      break;
    case FaultKind::kBitFlip:
      return FaultAction::kBitFlip;
  }
  return FaultAction::kFail;
}

class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultInjectingFileSystem* fs,
                     std::unique_ptr<WritableFile> base)
      : fs_(fs), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override;
  Status Flush() override;
  Status Sync() override;
  Status Close() override;

 private:
  FaultInjectingFileSystem* fs_;
  std::unique_ptr<WritableFile> base_;
};

class FaultyReadableFile : public ReadableFile {
 public:
  FaultyReadableFile(FaultInjectingFileSystem* fs,
                     std::unique_ptr<ReadableFile> base)
      : fs_(fs), base_(std::move(base)) {}

  Result<size_t> Read(void* buf, size_t n) override;

 private:
  FaultInjectingFileSystem* fs_;
  std::unique_ptr<ReadableFile> base_;
};

Status FaultyWritableFile::Append(const void* data, size_t n) {
  switch (fs_->NextOp(FaultInjectingFileSystem::OpClass::kAppend)) {
    case FaultInjectingFileSystem::FaultAction::kNone:
      return base_->Append(data, n);
    case FaultInjectingFileSystem::FaultAction::kShortWrite:
      // Torn write: half the bytes land before the error.
      (void)base_->Append(data, n / 2);
      return FaultInjectingFileSystem::InjectedError("torn write");
    default:
      return FaultInjectingFileSystem::InjectedError("write failed");
  }
}

Status FaultyWritableFile::Flush() {
  if (fs_->NextOp(FaultInjectingFileSystem::OpClass::kOther) !=
      FaultInjectingFileSystem::FaultAction::kNone) {
    return FaultInjectingFileSystem::InjectedError("flush failed");
  }
  return base_->Flush();
}

Status FaultyWritableFile::Sync() {
  if (fs_->NextOp(FaultInjectingFileSystem::OpClass::kOther) !=
      FaultInjectingFileSystem::FaultAction::kNone) {
    return FaultInjectingFileSystem::InjectedError("fsync failed");
  }
  return base_->Sync();
}

Status FaultyWritableFile::Close() {
  if (fs_->NextOp(FaultInjectingFileSystem::OpClass::kOther) !=
      FaultInjectingFileSystem::FaultAction::kNone) {
    return FaultInjectingFileSystem::InjectedError("close failed");
  }
  return base_->Close();
}

Result<size_t> FaultyReadableFile::Read(void* buf, size_t n) {
  switch (fs_->NextOp(FaultInjectingFileSystem::OpClass::kRead)) {
    case FaultInjectingFileSystem::FaultAction::kNone:
      return base_->Read(buf, n);
    case FaultInjectingFileSystem::FaultAction::kBitFlip: {
      Result<size_t> got = base_->Read(buf, n);
      if (got.ok() && *got > 0) {
        fs_->ApplyBitFlip(static_cast<uint8_t*>(buf), *got);
      }
      return got;
    }
    default:
      return FaultInjectingFileSystem::InjectedError("read failed");
  }
}

Result<std::unique_ptr<WritableFile>> FaultInjectingFileSystem::NewWritableFile(
    const std::string& path) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("cannot open for writing");
  }
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                           base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      new FaultyWritableFile(this, std::move(base)));
}

Result<std::unique_ptr<ReadableFile>> FaultInjectingFileSystem::NewReadableFile(
    const std::string& path) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("cannot open for reading");
  }
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<ReadableFile> base,
                           base_->NewReadableFile(path));
  return std::unique_ptr<ReadableFile>(
      new FaultyReadableFile(this, std::move(base)));
}

Status FaultInjectingFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("rename failed");
  }
  return base_->Rename(from, to);
}

Status FaultInjectingFileSystem::RemoveFile(const std::string& path) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("remove failed");
  }
  return base_->RemoveFile(path);
}

Result<bool> FaultInjectingFileSystem::FileExists(const std::string& path) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("stat failed");
  }
  return base_->FileExists(path);
}

Status FaultInjectingFileSystem::CreateDir(const std::string& path) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("mkdir failed");
  }
  return base_->CreateDir(path);
}

Status FaultInjectingFileSystem::SyncDir(const std::string& dir) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("directory fsync failed");
  }
  return base_->SyncDir(dir);
}

Result<std::vector<std::string>> FaultInjectingFileSystem::ListDirectory(
    const std::string& dir) {
  if (NextOp(OpClass::kOther) != FaultAction::kNone) {
    return InjectedError("list failed");
  }
  return base_->ListDirectory(dir);
}

}  // namespace teleios::io
