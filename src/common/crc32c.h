#ifndef TELEIOS_COMMON_CRC32C_H_
#define TELEIOS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace teleios {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum used by RocksDB, LevelDB and iSCSI. Detects all
/// single-bit and single-byte corruptions and all burst errors up to 32
/// bits, which is what the storage layer needs to turn silent corruption
/// into StatusCode::kDataLoss.
///
/// `Crc32c(data, n)` computes the checksum of a buffer;
/// `Crc32cExtend(crc, data, n)` continues a running checksum so large
/// payloads can be checksummed in chunks without concatenation. It runs
/// on the SSE4.2 `crc32` instruction, 8 bytes per step, when the CPU has
/// it (checked once at run time), and on the portable table loop below
/// otherwise.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The dependency-free slice-by-4 table loop: the fallback of
/// Crc32cExtend and the reference its hardware path is tested against.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

inline uint32_t Crc32c(std::string_view s) {
  return Crc32c(s.data(), s.size());
}

}  // namespace teleios

#endif  // TELEIOS_COMMON_CRC32C_H_
