#include "storage/persistence.h"

#include <cstdint>
#include <sstream>

#include "common/strings.h"
#include "io/codec.h"
#include "io/filesystem.h"

namespace teleios::storage {

namespace {

// TELT v2 on-disk layout:
//   "TELT" | u32 version=2 | header block | one block per column
// where a block is io::AppendBlockTo framing (u64 len, u32 CRC32C,
// payload). The header payload is (u32 ncols, u64 nrows, ncols x
// (string name, u32 type)); a column payload is nrows validity bytes
// followed by the typed cells (strings: u32 dict size, dict entries,
// nrows x i32 codes).
constexpr char kMagic[4] = {'T', 'E', 'L', 'T'};
constexpr uint32_t kTeltVersion = 2;
constexpr uint32_t kMaxColumns = 1u << 16;
constexpr uint32_t kMaxColumnType = static_cast<uint32_t>(ColumnType::kString);

std::string SerializeColumn(const Column& col, size_t rows) {
  std::string payload;
  for (size_t r = 0; r < rows; ++r) {
    payload.push_back(col.IsNull(r) ? '\0' : '\1');
  }
  switch (col.type()) {
    case ColumnType::kBool:
      for (size_t r = 0; r < rows; ++r) {
        payload.push_back((!col.IsNull(r) && col.GetBool(r)) ? '\1' : '\0');
      }
      break;
    case ColumnType::kInt64:
      for (size_t r = 0; r < rows; ++r) {
        io::PutI64(&payload, col.IsNull(r) ? 0 : col.GetInt64(r));
      }
      break;
    case ColumnType::kFloat64:
      for (size_t r = 0; r < rows; ++r) {
        io::PutF64(&payload, col.IsNull(r) ? 0.0 : col.GetFloat64(r));
      }
      break;
    case ColumnType::kString: {
      const Dictionary& dict = col.dict();
      io::PutU32(&payload, static_cast<uint32_t>(dict.size()));
      for (int32_t i = 0; i < dict.size(); ++i) {
        io::PutStr(&payload, dict.At(i));
      }
      for (size_t r = 0; r < rows; ++r) {
        io::PutI32(&payload, col.IsNull(r) ? -1 : col.GetStringCode(r));
      }
      break;
    }
  }
  return payload;
}

Status ParseColumn(std::string_view payload, uint64_t nrows, Column* col) {
  io::ByteReader reader(payload);
  if (nrows > payload.size()) {
    return Status::ParseError("column block shorter than its validity map");
  }
  std::vector<uint8_t> valid(static_cast<size_t>(nrows));
  if (nrows > 0 && !reader.ReadBytes(valid.data(), valid.size())) {
    return Status::ParseError("truncated TELT validity");
  }
  col->Reserve(nrows);
  switch (col->type()) {
    case ColumnType::kBool:
      for (uint64_t r = 0; r < nrows; ++r) {
        uint8_t b = 0;
        if (!reader.ReadBytes(&b, 1)) {
          return Status::ParseError("truncated TELT payload");
        }
        if (valid[r]) col->AppendBool(b != 0);
        else col->AppendNull();
      }
      break;
    case ColumnType::kInt64:
      for (uint64_t r = 0; r < nrows; ++r) {
        int64_t v = 0;
        if (!reader.ReadI64(&v)) {
          return Status::ParseError("truncated TELT payload");
        }
        if (valid[r]) col->AppendInt64(v);
        else col->AppendNull();
      }
      break;
    case ColumnType::kFloat64:
      for (uint64_t r = 0; r < nrows; ++r) {
        double v = 0;
        if (!reader.ReadF64(&v)) {
          return Status::ParseError("truncated TELT payload");
        }
        if (valid[r]) col->AppendFloat64(v);
        else col->AppendNull();
      }
      break;
    case ColumnType::kString: {
      uint32_t dict_size = 0;
      if (!reader.ReadU32(&dict_size)) {
        return Status::ParseError("truncated TELT dictionary");
      }
      // Each entry takes at least its 4-byte length prefix.
      if (dict_size > reader.remaining() / sizeof(uint32_t)) {
        return Status::ParseError("implausible TELT dictionary size");
      }
      std::vector<std::string> dict(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        if (!reader.ReadStr(&dict[i])) {
          return Status::ParseError("truncated TELT dictionary entry");
        }
      }
      for (uint64_t r = 0; r < nrows; ++r) {
        int32_t code = 0;
        if (!reader.ReadI32(&code)) {
          return Status::ParseError("truncated TELT codes");
        }
        if (!valid[r]) {
          col->AppendNull();
        } else if (code < 0 || code >= static_cast<int32_t>(dict_size)) {
          return Status::ParseError(
              "TELT dictionary code " + std::to_string(code) +
              " out of range (dictionary size " + std::to_string(dict_size) +
              ")");
        } else {
          col->AppendString(dict[code]);
        }
      }
      break;
    }
  }
  if (!reader.exhausted()) {
    return Status::ParseError("trailing bytes in TELT column block");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeTelt(const Table& table) {
  std::string image(kMagic, sizeof(kMagic));
  io::PutU32(&image, kTeltVersion);
  std::string header;
  io::PutU32(&header, static_cast<uint32_t>(table.num_columns()));
  io::PutU64(&header, table.num_rows());
  for (const Field& f : table.schema().fields()) {
    io::PutStr(&header, f.name);
    io::PutU32(&header, static_cast<uint32_t>(f.type));
  }
  io::AppendBlockTo(&image, header);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    io::AppendBlockTo(&image,
                      SerializeColumn(table.column(c), table.num_rows()));
  }
  return image;
}

Result<Table> DecodeTelt(std::string_view image) {
  io::ByteReader reader(image);
  char magic[4];
  uint32_t version = 0;
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::ParseError("not a TELT image");
  }
  if (!reader.ReadU32(&version)) {
    return Status::ParseError("truncated TELT version");
  }
  if (version > kTeltVersion) {
    // Forward-compatibility guard: a newer writer may have reshaped the
    // sections, so parsing by this binary's layout could silently
    // misread data — refuse loudly instead of guessing.
    return Status::DataLoss(
        "TELT version " + std::to_string(version) +
        " is newer than this binary (understands <= " +
        std::to_string(kTeltVersion) + "); upgrade before loading");
  }
  if (version != kTeltVersion) {
    return Status::ParseError("unsupported TELT version " +
                              std::to_string(version));
  }
  TELEIOS_ASSIGN_OR_RETURN(std::string_view header, io::ReadBlock(&reader));
  io::ByteReader h(header);
  uint32_t ncols = 0;
  uint64_t nrows = 0;
  if (!h.ReadU32(&ncols) || !h.ReadU64(&nrows)) {
    return Status::ParseError("truncated TELT header");
  }
  if (ncols > kMaxColumns) {
    return Status::ParseError("implausible TELT column count " +
                              std::to_string(ncols));
  }
  if (nrows > io::kMaxBlockLen) {
    // A column block stores at least one validity byte per row, so more
    // rows than the block size cap cannot be real.
    return Status::ParseError("implausible TELT row count " +
                              std::to_string(nrows));
  }
  std::vector<Field> fields;
  for (uint32_t c = 0; c < ncols; ++c) {
    Field f;
    uint32_t t = 0;
    if (!h.ReadStr(&f.name) || !h.ReadU32(&t)) {
      return Status::ParseError("truncated TELT schema");
    }
    if (t > kMaxColumnType) {
      return Status::ParseError("invalid TELT column type " +
                                std::to_string(t));
    }
    f.type = static_cast<ColumnType>(t);
    fields.push_back(std::move(f));
  }
  if (!h.exhausted()) {
    return Status::ParseError("trailing bytes in TELT header");
  }
  Table table{Schema(std::move(fields))};
  for (uint32_t c = 0; c < ncols; ++c) {
    TELEIOS_ASSIGN_OR_RETURN(std::string_view payload,
                             io::ReadBlock(&reader));
    TELEIOS_RETURN_IF_ERROR(ParseColumn(payload, nrows, &table.column(c)));
  }
  if (!reader.exhausted()) {
    return Status::ParseError("trailing data after TELT columns");
  }
  return table;
}

namespace {

/// Splits one CSV record honoring quotes; returns false on a dangling
/// quote.
bool SplitCsvRecord(const std::string& line, std::vector<std::string>* out) {
  out->clear();
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
      continue;
    }
    if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out->push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (quoted) return false;
  out->push_back(std::move(cur));
  return true;
}

}  // namespace

Result<Table> ReadCsv(const std::string& path) {
  TELEIOS_ASSIGN_OR_RETURN(std::string content,
                           io::GetFileSystem()->ReadFile(path));
  std::istringstream is(content);
  std::string line;
  if (!std::getline(is, line)) {
    return Status::ParseError("empty CSV file '" + path + "'");
  }
  std::vector<std::string> header;
  if (!SplitCsvRecord(line, &header) || header.empty()) {
    return Status::ParseError("bad CSV header in '" + path + "'");
  }
  std::vector<std::vector<std::string>> records;
  size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> record;
    if (!SplitCsvRecord(line, &record)) {
      return Status::ParseError("unterminated quote at " + path + ":" +
                                std::to_string(lineno));
    }
    if (record.size() != header.size()) {
      return Status::ParseError("column count mismatch at " + path + ":" +
                                std::to_string(lineno));
    }
    records.push_back(std::move(record));
  }
  // Infer per-column types.
  std::vector<Field> fields;
  for (size_t c = 0; c < header.size(); ++c) {
    bool all_int = true;
    bool all_double = true;
    bool any_value = false;
    for (const auto& record : records) {
      const std::string& cell = record[c];
      if (cell.empty()) continue;
      any_value = true;
      if (all_int && !ParseInt64(cell).ok()) all_int = false;
      if (all_double && !ParseDouble(cell).ok()) all_double = false;
    }
    ColumnType type = ColumnType::kString;
    if (any_value && all_int) type = ColumnType::kInt64;
    else if (any_value && all_double) type = ColumnType::kFloat64;
    fields.push_back({header[c], type});
  }
  Table table{Schema(std::move(fields))};
  for (const auto& record : records) {
    std::vector<Value> row;
    for (size_t c = 0; c < record.size(); ++c) {
      const std::string& cell = record[c];
      if (cell.empty()) {
        row.emplace_back();
      } else {
        switch (table.schema().field(c).type) {
          case ColumnType::kInt64:
            row.emplace_back(*ParseInt64(cell));
            break;
          case ColumnType::kFloat64:
            row.emplace_back(*ParseDouble(cell));
            break;
          default:
            row.emplace_back(cell);
        }
      }
    }
    TELEIOS_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

}  // namespace teleios::storage
