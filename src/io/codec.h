#ifndef TELEIOS_IO_CODEC_H_
#define TELEIOS_IO_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace teleios::io {

// Little-endian fixed-width serialization into an in-memory file image,
// and a bounds-checked reader over one checksummed block's payload. The
// format drivers (TELT, .ter) serialize sections with Put*, frame them
// with AppendBlockTo, and parse them back with ByteReader — every read
// is bounds-checked against the block, so corrupt counts and lengths can
// never index past the verified payload.

inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Sequential bounds-checked reads over a byte buffer; every getter
/// returns false once the buffer is exhausted (and stays false).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadBytes(void* dst, size_t n) {
    if (n > remaining()) {
      pos_ = data_.size();
      ok_ = false;
      return false;
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadBytes(v, sizeof(*v)); }

  /// The next `n` bytes, in place.
  bool ReadView(size_t n, std::string_view* v) {
    if (n > remaining()) {
      pos_ = data_.size();
      ok_ = false;
      return false;
    }
    *v = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// Length-prefixed string; rejects lengths past the end of the buffer
  /// or above `max_len` (default 16 MiB, far beyond any sane name).
  bool ReadStr(std::string* s, size_t max_len = 16u << 20) {
    uint32_t n = 0;
    if (!ReadU32(&n)) return false;
    if (n > max_len || n > remaining()) {
      ok_ = false;
      return false;
    }
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// ReadStr in place.
  bool ReadStrView(std::string_view* v, size_t max_len = 16u << 20) {
    uint32_t n = 0;
    if (!ReadU32(&n)) return false;
    if (n > max_len) {
      ok_ = false;
      return false;
    }
    return ReadView(n, v);
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }
  /// False once any read ran out of bounds.
  bool ok() const { return ok_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace teleios::io

#endif  // TELEIOS_IO_CODEC_H_
