#ifndef TELEIOS_IO_FILESYSTEM_H_
#define TELEIOS_IO_FILESYSTEM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace teleios::io {

class ByteReader;

/// A sequential sink for one file's bytes. Obtained from
/// FileSystem::NewWritableFile; Close() is idempotent and is also run by
/// the destructor (destructor swallows the status — call Close()
/// explicitly on paths that care about durability).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const void* data, size_t n) = 0;
  /// Pushes buffered bytes to the OS (no durability guarantee).
  virtual Status Flush() = 0;
  /// Flush + fsync: bytes survive a power failure once this returns OK.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;

  Status Append(std::string_view s) { return Append(s.data(), s.size()); }
};

/// A sequential source of one file's bytes.
class ReadableFile {
 public:
  virtual ~ReadableFile() = default;

  /// Reads up to `n` bytes into `buf`; returns the number read (0 at
  /// end-of-file) or an error Status.
  virtual Result<size_t> Read(void* buf, size_t n) = 0;
};

/// RocksDB/Arrow-style filesystem abstraction. ALL TELEIOS file I/O —
/// the WAL, `.ter`/`.vec` vault drivers, CSV, Turtle dumps, NOA product
/// export — goes through a FileSystem, so a
/// FaultInjectingFileSystem wrapper can exercise every failure path
/// deterministically (see io/fault_injection.h).
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Result<bool> FileExists(const std::string& path) = 0;
  virtual Status CreateDir(const std::string& path) = 0;
  /// Fsyncs the directory itself, making previously renamed/created
  /// entries durable (a rename is not power-failure-safe until the
  /// parent directory's metadata has been flushed).
  virtual Status SyncDir(const std::string& dir) = 0;
  /// Full paths of the regular files in `dir`, sorted by name so that
  /// directory scans (vault attach) are reproducible across filesystems.
  virtual Result<std::vector<std::string>> ListDirectory(
      const std::string& dir) = 0;

  // --- conveniences built on the primitives (fault-injectable too) ------

  /// Slurps a whole file, reading in bounded chunks.
  Result<std::string> ReadFile(const std::string& path);

  /// Crash-safe durable write: writes `path + ".tmp"`, flushes, fsyncs,
  /// closes, renames over `path`, then fsyncs the parent directory so
  /// the rename itself survives a power failure. A crash (or injected
  /// fault) at any point leaves either the old file or the new file,
  /// never a hybrid — note that a failure at or after the rename can
  /// leave the NEW file in place, so a non-OK status means "not durable",
  /// not "nothing happened". The tmp file is removed on failure (best
  /// effort).
  Status WriteFileAtomic(const std::string& path, std::string_view data);
};

/// The filename of `path` without its final extension ("a/b/c.ter" ->
/// "c"). Pure string manipulation, but it lives here so std::filesystem
/// stays confined to src/io/ (teleios_lint rule TL001: every path and
/// file primitive that the fault layer should know about goes through
/// the io seam).
std::string PathStem(const std::string& path);

/// The process-default FileSystem (a PosixFileSystem singleton) unless
/// overridden with SetFileSystem. Never nullptr.
FileSystem* GetFileSystem();

/// Installs `fs` as the process-default (nullptr restores the Posix
/// singleton); returns the previous default. Not thread-safe — intended
/// for test harnesses and tools, installed before I/O starts.
FileSystem* SetFileSystem(FileSystem* fs);

/// RAII override of the process-default FileSystem.
class ScopedFileSystem {
 public:
  explicit ScopedFileSystem(FileSystem* fs) : prev_(SetFileSystem(fs)) {}
  ~ScopedFileSystem() { SetFileSystem(prev_); }
  ScopedFileSystem(const ScopedFileSystem&) = delete;
  ScopedFileSystem& operator=(const ScopedFileSystem&) = delete;

 private:
  FileSystem* prev_;
};

/// The real thing: C stdio + fsync.
class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& dir) override;
};

/// Exact-read helper over a ReadableFile with a sticky error status, the
/// reader-side counterpart of WritableFile for the binary format
/// drivers. ReadExact returns false on error OR short read; status()
/// distinguishes them (OK after a short read = clean end-of-file, i.e. a
/// truncated file).
class FileReader {
 public:
  explicit FileReader(std::unique_ptr<ReadableFile> file)
      : file_(std::move(file)) {}

  bool ReadExact(void* buf, size_t n);

  /// The underlying filesystem error, or OK (truncation is not an
  /// error here; format parsers turn it into ParseError).
  const Status& status() const { return status_; }

 private:
  std::unique_ptr<ReadableFile> file_;
  Status status_;
};

/// Propagates a FileReader's I/O error if it has one, else returns a
/// ParseError for a truncated file — the standard "ReadExact failed"
/// disposition for format drivers.
Status TruncatedOr(const FileReader& reader, const std::string& what);

// --- checksummed block framing --------------------------------------------
//
// The unit of corruption detection in TELT/`.ter` files: a block is
//   u64 payload length | u32 CRC32C of payload | payload bytes
// Readers verify the checksum and surface mismatches as kDataLoss, so a
// read-side bit flip anywhere in the block (length, checksum or payload)
// is caught, never silently parsed.

/// Hard upper bound on a single block (1 GiB); longer lengths are treated
/// as corruption without attempting the allocation.
inline constexpr uint64_t kMaxBlockLen = 1ull << 30;

/// Appends the framed block to an in-memory file image.
void AppendBlockTo(std::string* out, std::string_view payload);

/// Reads and verifies one block (chunked, so a corrupt huge length field
/// fails fast at end-of-file instead of allocating).
Result<std::string> ReadBlock(FileReader* reader,
                              uint64_t max_len = kMaxBlockLen);

/// Reads and verifies one block of an in-memory image, in place.
Result<std::string_view> ReadBlock(ByteReader* reader);

/// Reads a block whose payload must be exactly `expected_len` bytes,
/// directly into `dst` (no intermediate buffer; used for raster band
/// payloads). Length mismatch is ParseError, checksum mismatch kDataLoss.
Status ReadBlockInto(FileReader* reader, void* dst, uint64_t expected_len);

// --- checksum trailers for line-oriented text formats ---------------------
//
// Text formats (`.vec`) end with a final
// `#CRC32C xxxxxxxx` line covering every byte before it, so read-side
// corruption anywhere in the file is caught as kDataLoss and a missing
// trailer (truncation) as ParseError.

/// Appends the `#CRC32C xxxxxxxx\n` trailer line to `content`.
void AppendCrcTrailer(std::string* content);

/// Verifies and strips the trailer; returns the payload before it.
/// Missing/malformed trailer is ParseError, mismatch kDataLoss.
Result<std::string> VerifyCrcTrailer(std::string_view content);

}  // namespace teleios::io

#endif  // TELEIOS_IO_FILESYSTEM_H_
