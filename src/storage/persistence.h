#ifndef TELEIOS_STORAGE_PERSISTENCE_H_
#define TELEIOS_STORAGE_PERSISTENCE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/table.h"

namespace teleios::storage {

/// Encodes `table` in the TELEIOS binary table format ("TELT", version
/// 2): the schema, row count, validity bytes and typed payloads (string
/// columns as dictionary + codes) in CRC32C-checksummed sections. A
/// checkpoint logs one image per catalog table.
std::string EncodeTelt(const Table& table);

/// Decodes an EncodeTelt image. Corrupt bytes surface as kDataLoss
/// (checksum mismatch, a format version newer than this binary) or
/// ParseError (truncation, implausible counts, out-of-range dictionary
/// codes) — never a crash.
Result<Table> DecodeTelt(std::string_view image);

/// Reads a CSV with a header row into a table. Column types are inferred
/// from the data (BIGINT if every non-empty cell parses as an integer,
/// then DOUBLE, else VARCHAR); empty cells become NULL. Quoted fields
/// with doubled-quote escapes are supported.
Result<Table> ReadCsv(const std::string& path);

}  // namespace teleios::storage

#endif  // TELEIOS_STORAGE_PERSISTENCE_H_
