#include "io/filesystem.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32c.h"
#include "io/codec.h"
#include "obs/metrics.h"

namespace teleios::io {

namespace stdfs = std::filesystem;

namespace {

constexpr size_t kIoChunk = 64 * 1024;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (file_) std::fclose(file_);
  }

  Status Append(const void* data, size_t n) override {
    if (!file_) return Status::IoError("append to closed file '" + path_ + "'");
    if (std::fwrite(data, 1, n, file_) != n) {
      return Status::IoError(ErrnoMessage("write failure on", path_));
    }
    return Status::OK();
  }

  Status Flush() override {
    if (!file_) return Status::IoError("flush of closed file '" + path_ + "'");
    if (std::fflush(file_) != 0) {
      return Status::IoError(ErrnoMessage("flush failure on", path_));
    }
    return Status::OK();
  }

  Status Sync() override {
    TELEIOS_RETURN_IF_ERROR(Flush());
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IoError(ErrnoMessage("fsync failure on", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (!file_) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IoError(ErrnoMessage("close failure on", path_));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixReadableFile : public ReadableFile {
 public:
  PosixReadableFile(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}
  ~PosixReadableFile() override {
    if (file_) std::fclose(file_);
  }

  Result<size_t> Read(void* buf, size_t n) override {
    size_t got = std::fread(buf, 1, n, file_);
    if (got < n && std::ferror(file_)) {
      return Status::IoError(ErrnoMessage("read failure on", path_));
    }
    return got;
  }

 private:
  std::FILE* file_;
  std::string path_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> PosixFileSystem::NewWritableFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::IoError(ErrnoMessage("cannot open", path));
  return std::unique_ptr<WritableFile>(new PosixWritableFile(f, path));
}

Result<std::unique_ptr<ReadableFile>> PosixFileSystem::NewReadableFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::IoError(ErrnoMessage("cannot open", path));
  return std::unique_ptr<ReadableFile>(new PosixReadableFile(f, path));
}

Status PosixFileSystem::Rename(const std::string& from,
                               const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("cannot rename", from));
  }
  return Status::OK();
}

Status PosixFileSystem::RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("cannot remove", path));
  }
  return Status::OK();
}

Result<bool> PosixFileSystem::FileExists(const std::string& path) {
  std::error_code ec;
  bool exists = stdfs::exists(path, ec);
  if (ec) return Status::IoError("cannot stat '" + path + "': " + ec.message());
  return exists;
}

Status PosixFileSystem::CreateDir(const std::string& path) {
  std::error_code ec;
  stdfs::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create directory '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status PosixFileSystem::SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError(ErrnoMessage("cannot open", dir));
  int rc = ::fsync(fd);
  int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Status::IoError(ErrnoMessage("fsync failure on", dir));
  }
  return Status::OK();
}

Result<std::vector<std::string>> PosixFileSystem::ListDirectory(
    const std::string& dir) {
  std::error_code ec;
  if (!stdfs::is_directory(dir, ec)) {
    return Status::NotFound("'" + dir + "' is not a directory");
  }
  std::vector<std::string> paths;
  // Explicit iterator with the error_code overloads throughout: the
  // range-for increment and is_regular_file() would otherwise throw on a
  // mid-iteration error (e.g. the directory vanishing under us).
  stdfs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list '" + dir + "': " + ec.message());
  }
  for (const stdfs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) {
      return Status::IoError("cannot list '" + dir + "': " + ec.message());
    }
    if (it->is_regular_file(ec) && !ec) paths.push_back(it->path().string());
    if (ec) {
      return Status::IoError("cannot stat '" + it->path().string() +
                             "': " + ec.message());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<std::string> FileSystem::ReadFile(const std::string& path) {
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<ReadableFile> file,
                           NewReadableFile(path));
  std::string out;
  char buf[kIoChunk];
  for (;;) {
    TELEIOS_ASSIGN_OR_RETURN(size_t got, file->Read(buf, sizeof(buf)));
    if (got == 0) break;
    out.append(buf, got);
  }
  return out;
}

namespace {

/// Numbers WriteFileAtomic's temp files, so two writes of one path in
/// this process never open, truncate or rename the same temp file.
std::atomic<uint64_t> g_atomic_write_seq{0};

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status FileSystem::WriteFileAtomic(const std::string& path,
                                   std::string_view data) {
  obs::Count("teleios_io_atomic_writes_total");
  const std::string tmp =
      path + "." + std::to_string(g_atomic_write_seq.fetch_add(1)) + ".tmp";
  Status st;
  {
    auto file = NewWritableFile(tmp);
    if (!file.ok()) return file.status();
    for (size_t off = 0; st.ok() && off < data.size(); off += kIoChunk) {
      st = (*file)->Append(data.data() + off,
                           std::min(kIoChunk, data.size() - off));
    }
    if (st.ok()) st = (*file)->Sync();
    Status close = (*file)->Close();
    if (st.ok()) st = close;
  }
  if (st.ok()) st = Rename(tmp, path);
  if (!st.ok()) {
    (void)RemoveFile(tmp);  // best effort; tmp is inert anyway
    return st;
  }
  // The rename only becomes durable once the directory metadata is on
  // disk; without this a power failure can revert `path` to the old file
  // even though the data itself was fsynced. A failure here means "new
  // file visible but durability unknown" — surfaced, not rolled back.
  return SyncDir(ParentDir(path));
}

namespace {

PosixFileSystem* PosixSingleton() {
  static PosixFileSystem posix;
  return &posix;
}

FileSystem* g_default_fs = nullptr;

}  // namespace

std::string PathStem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

FileSystem* GetFileSystem() {
  return g_default_fs ? g_default_fs : PosixSingleton();
}

FileSystem* SetFileSystem(FileSystem* fs) {
  FileSystem* prev = g_default_fs;
  g_default_fs = fs;
  return prev;
}

bool FileReader::ReadExact(void* buf, size_t n) {
  if (!status_.ok()) return false;
  uint8_t* dst = static_cast<uint8_t*>(buf);
  while (n > 0) {
    Result<size_t> got = file_->Read(dst, n);
    if (!got.ok()) {
      status_ = got.status();
      return false;
    }
    if (*got == 0) return false;  // clean EOF: truncated input
    dst += *got;
    n -= *got;
  }
  return true;
}

Status TruncatedOr(const FileReader& reader, const std::string& what) {
  if (!reader.status().ok()) return reader.status();
  return Status::ParseError(what);
}

void AppendBlockTo(std::string* out, std::string_view payload) {
  uint64_t len = payload.size();
  uint32_t crc = Crc32c(payload);
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out->append(payload.data(), payload.size());
}

namespace {

struct BlockHeader {
  uint64_t len = 0;
  uint32_t crc = 0;
};

Status ImplausibleLength(uint64_t len) {
  obs::Count("teleios_io_checksum_failures_total");
  return Status::DataLoss("implausible block length " + std::to_string(len));
}

Result<BlockHeader> ReadBlockHeader(FileReader* reader, uint64_t max_len) {
  BlockHeader h;
  if (!reader->ReadExact(&h.len, sizeof(h.len)) ||
      !reader->ReadExact(&h.crc, sizeof(h.crc))) {
    return TruncatedOr(*reader, "truncated block header");
  }
  if (h.len > max_len) return ImplausibleLength(h.len);
  return h;
}

Status ChecksumMismatch() {
  obs::Count("teleios_io_checksum_failures_total");
  return Status::DataLoss("block checksum mismatch");
}

}  // namespace

Result<std::string> ReadBlock(FileReader* reader, uint64_t max_len) {
  TELEIOS_ASSIGN_OR_RETURN(BlockHeader h, ReadBlockHeader(reader, max_len));
  std::string payload;
  char buf[kIoChunk];
  // Chunked append: a corrupt length field hits end-of-file quickly
  // instead of reserving the full bogus size up front.
  for (uint64_t left = h.len; left > 0;) {
    size_t take = static_cast<size_t>(std::min<uint64_t>(left, sizeof(buf)));
    if (!reader->ReadExact(buf, take)) {
      return TruncatedOr(*reader, "truncated block payload");
    }
    payload.append(buf, take);
    left -= take;
  }
  if (Crc32c(payload) != h.crc) return ChecksumMismatch();
  return payload;
}

Result<std::string_view> ReadBlock(ByteReader* reader) {
  BlockHeader h;
  if (!reader->ReadU64(&h.len) || !reader->ReadU32(&h.crc)) {
    return Status::ParseError("truncated block header");
  }
  if (h.len > kMaxBlockLen) return ImplausibleLength(h.len);
  std::string_view payload;
  if (!reader->ReadView(static_cast<size_t>(h.len), &payload)) {
    return Status::ParseError("truncated block payload");
  }
  if (Crc32c(payload) != h.crc) return ChecksumMismatch();
  return payload;
}

Status ReadBlockInto(FileReader* reader, void* dst, uint64_t expected_len) {
  TELEIOS_ASSIGN_OR_RETURN(BlockHeader h, ReadBlockHeader(reader, kMaxBlockLen));
  if (h.len != expected_len) {
    return Status::ParseError("block length " + std::to_string(h.len) +
                              " != expected " + std::to_string(expected_len));
  }
  uint8_t* out = static_cast<uint8_t*>(dst);
  uint32_t crc = 0;
  for (uint64_t left = h.len; left > 0;) {
    size_t take = static_cast<size_t>(std::min<uint64_t>(left, kIoChunk));
    if (!reader->ReadExact(out, take)) {
      return TruncatedOr(*reader, "truncated block payload");
    }
    crc = Crc32cExtend(crc, out, take);
    out += take;
    left -= take;
  }
  if (crc != h.crc) return ChecksumMismatch();
  return Status::OK();
}

namespace {

constexpr std::string_view kCrcTrailerTag = "#CRC32C ";

}  // namespace

void AppendCrcTrailer(std::string* content) {
  uint32_t crc = Crc32c(*content);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  content->append(kCrcTrailerTag);
  content->append(buf);
  content->push_back('\n');
}

Result<std::string> VerifyCrcTrailer(std::string_view content) {
  // The trailer is the final line: "#CRC32C " + 8 hex digits + '\n'
  // (a missing final newline is tolerated).
  std::string_view body = content;
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  size_t line_start = body.rfind('\n');
  line_start = line_start == std::string_view::npos ? 0 : line_start + 1;
  std::string_view line = body.substr(line_start);
  if (line.size() != kCrcTrailerTag.size() + 8 ||
      line.substr(0, kCrcTrailerTag.size()) != kCrcTrailerTag) {
    return Status::ParseError("missing checksum trailer");
  }
  uint32_t stored = 0;
  for (char c : line.substr(kCrcTrailerTag.size())) {
    uint32_t digit;
    // The trailer is machine-written, lowercase only; accepting 'A'-'F'
    // as aliases would let a case-flipping bit error pass unnoticed.
    if (c >= '0' && c <= '9') digit = static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint32_t>(c - 'a') + 10;
    else return Status::ParseError("malformed checksum trailer");
    stored = stored << 4 | digit;
  }
  std::string_view payload = content.substr(0, line_start);
  if (Crc32c(payload) != stored) {
    obs::Count("teleios_io_checksum_failures_total");
    return Status::DataLoss("checksum trailer mismatch");
  }
  return std::string(payload);
}

}  // namespace teleios::io
