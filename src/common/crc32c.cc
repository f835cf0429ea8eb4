#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace teleios {

namespace {

/// Slice-by-4 lookup tables, built once at first use. Table 0 is the
/// classic byte-at-a-time table for the reflected Castagnoli polynomial;
/// tables 1..3 shift it by one extra byte each so the hot loop consumes
/// four input bytes per iteration.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

#if defined(__x86_64__)
/// The same CRC on the SSE4.2 `crc32` instruction (which implements
/// exactly this polynomial): bytes up to an 8-byte boundary, then 8 bytes
/// per step, then the tail.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  for (; n > 0; --n) c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  return ~static_cast<uint32_t>(c);
}
#endif

ExtendFn SelectExtend() {
#if defined(__x86_64__)
  // Safe even when the first checksum runs before static constructors.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto& t = Tables().t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
    crc = t[3][crc & 0xFF] ^ t[2][(crc >> 8) & 0xFF] ^
          t[1][(crc >> 16) & 0xFF] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const ExtendFn extend = SelectExtend();
  return extend(crc, data, n);
}

}  // namespace teleios
