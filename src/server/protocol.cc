#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>

#include "common/crc32c.h"
#include "common/strings.h"

namespace teleios::server {

namespace {

using storage::ColumnType;

/// Value wire tags; fixed forever (wire compatibility).
enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt64 = 2,
  kTagFloat64 = 3,
  kTagString = 4,
};

bool ReadU8(io::ByteReader* reader, uint8_t* v) {
  return reader->ReadBytes(v, 1);
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

Result<ColumnType> ColumnTypeFromWire(uint8_t v) {
  switch (v) {
    case 0:
      return ColumnType::kBool;
    case 1:
      return ColumnType::kInt64;
    case 2:
      return ColumnType::kFloat64;
    case 3:
      return ColumnType::kString;
    default:
      return Status::DataLoss("unknown wire column type " +
                              std::to_string(v));
  }
}

uint8_t ColumnTypeToWire(ColumnType t) {
  switch (t) {
    case ColumnType::kBool:
      return 0;
    case ColumnType::kInt64:
      return 1;
    case ColumnType::kFloat64:
      return 2;
    case ColumnType::kString:
      return 3;
  }
  return 255;  // unreachable
}

/// The wire tag of a non-NULL cell of a `type` column.
uint8_t TagOf(ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return kTagBool;
    case ColumnType::kInt64:
      return kTagInt64;
    case ColumnType::kFloat64:
      return kTagFloat64;
    case ColumnType::kString:
      return kTagString;
  }
  return kTagNull;  // unreachable
}

/// The Value whose tag was just read; kDataLoss on a bad tag or
/// truncation.
Result<Value> ReadTagged(uint8_t tag, io::ByteReader* reader) {
  switch (tag) {
    case kTagNull:
      return Value();
    case kTagBool: {
      uint8_t b = 0;
      if (!ReadU8(reader, &b)) return Status::DataLoss("truncated bool");
      return Value(b != 0);
    }
    case kTagInt64: {
      int64_t v = 0;
      if (!reader->ReadI64(&v)) return Status::DataLoss("truncated int64");
      return Value(v);
    }
    case kTagFloat64: {
      double v = 0;
      if (!reader->ReadF64(&v)) return Status::DataLoss("truncated float64");
      return Value(v);
    }
    case kTagString: {
      std::string s;
      if (!reader->ReadStr(&s)) return Status::DataLoss("truncated string");
      return Value(std::move(s));
    }
    default:
      return Status::DataLoss("unknown value tag " + std::to_string(tag));
  }
}

/// Renders `v` as a SQL literal for parameter binding.
std::string SqlLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return v.AsBool() ? "TRUE" : "FALSE";
    case ValueType::kInt64:
      return std::to_string(v.AsInt64());
    case ValueType::kFloat64:
      return StrFormat("%.17g", v.AsFloat64());
    case ValueType::kString: {
      std::string out = "'";
      for (char c : v.AsString()) {
        out += c;
        if (c == '\'') out += '\'';  // SQL doubles embedded quotes
      }
      out += '\'';
      return out;
    }
  }
  return "NULL";  // unreachable
}

}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello:
      return "HELLO";
    case Opcode::kQuery:
      return "QUERY";
    case Opcode::kPrepare:
      return "PREPARE";
    case Opcode::kExecute:
      return "EXECUTE";
    case Opcode::kCancel:
      return "CANCEL";
    case Opcode::kCloseStmt:
      return "CLOSE_STMT";
    case Opcode::kGoodbye:
      return "GOODBYE";
    case Opcode::kPing:
      return "PING";
    case Opcode::kWelcome:
      return "WELCOME";
    case Opcode::kError:
      return "ERROR";
    case Opcode::kSchema:
      return "SCHEMA";
    case Opcode::kRows:
      return "ROWS";
    case Opcode::kDone:
      return "DONE";
    case Opcode::kStmtReady:
      return "STMT_READY";
    case Opcode::kPong:
      return "PONG";
  }
  return "UNKNOWN";
}

const char* LangName(Lang lang) {
  switch (lang) {
    case Lang::kSql:
      return "sql";
    case Lang::kSciQl:
      return "sciql";
    case Lang::kStSparql:
      return "stsparql";
  }
  return "unknown";
}

Result<Lang> ParseLang(std::string_view name) {
  std::string lower = StrLower(name);
  if (lower == "sql") return Lang::kSql;
  if (lower == "sciql") return Lang::kSciQl;
  if (lower == "stsparql" || lower == "sparql") return Lang::kStSparql;
  return Status::InvalidArgument("unknown query language '" +
                                 std::string(name) +
                                 "' (sql, sciql, stsparql)");
}

namespace {

/// Opens a frame at the end of `out`: a header to fill in, then the
/// opcode. Returns where the frame starts; the payload is appended next.
size_t BeginFrame(std::string* out, Opcode opcode) {
  const size_t start = out->size();
  out->append(kFrameHeaderBytes, '\0');
  PutU8(out, static_cast<uint8_t>(opcode));
  return start;
}

/// Writes the length and CRC of the frame opened at `start`, whose body
/// runs to the end of `out`.
void EndFrame(std::string* out, size_t start) {
  char* header = out->data() + start;
  const uint32_t length =
      static_cast<uint32_t>(out->size() - start - kFrameHeaderBytes);
  const uint32_t crc = Crc32c(header + kFrameHeaderBytes, length);
  std::memcpy(header, &length, sizeof(length));
  std::memcpy(header + sizeof(length), &crc, sizeof(crc));
}

/// Appends the ROWS payload of rows [begin, end) of `table`, row-major in
/// AppendValue's bytes, read straight off the typed columns.
void AppendRowChunk(std::string* out, const storage::Table& table,
                    size_t begin, size_t end) {
  end = std::min(end, table.num_rows());
  begin = std::min(begin, end);
  const size_t ncols = table.num_columns();
  // A tag and eight bytes a cell; string cells grow the buffer as needed.
  out->reserve(out->size() + sizeof(uint32_t) + (end - begin) * ncols * 9);
  io::PutU32(out, static_cast<uint32_t>(end - begin));
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      const storage::Column& col = table.column(c);
      if (col.IsNull(r)) {
        PutU8(out, kTagNull);
        continue;
      }
      switch (col.type()) {
        case ColumnType::kBool:
          PutU8(out, kTagBool);
          PutU8(out, col.GetBool(r) ? 1 : 0);
          break;
        case ColumnType::kInt64:
          PutU8(out, kTagInt64);
          io::PutI64(out, col.ints()[r]);
          break;
        case ColumnType::kFloat64:
          PutU8(out, kTagFloat64);
          io::PutF64(out, col.doubles()[r]);
          break;
        case ColumnType::kString:
          PutU8(out, kTagString);
          io::PutStr(out, col.GetString(r));
          break;
      }
    }
  }
}

}  // namespace

void AppendFrame(std::string* out, Opcode opcode, std::string_view payload) {
  const size_t start = BeginFrame(out, opcode);
  out->append(payload.data(), payload.size());
  EndFrame(out, start);
}

void AppendRowsFrame(std::string* out, const storage::Table& table,
                     size_t begin, size_t end) {
  const size_t start = BeginFrame(out, Opcode::kRows);
  AppendRowChunk(out, table, begin, end);
  EndFrame(out, start);
}

Result<uint32_t> DecodeFrameLength(std::string_view header, uint32_t* crc) {
  io::ByteReader reader(header);
  uint32_t length = 0;
  if (!reader.ReadU32(&length) || !reader.ReadU32(crc)) {
    return Status::DataLoss("truncated frame header");
  }
  if (length == 0) {
    return Status::DataLoss("frame with zero-length body");
  }
  if (length > kMaxFrameBytes) {
    return Status::DataLoss("frame length " + std::to_string(length) +
                            " exceeds the " +
                            std::to_string(kMaxFrameBytes) + "-byte bound");
  }
  return length;
}

Result<Frame> DecodeFrameBody(std::string_view body, uint32_t crc) {
  if (body.empty()) return Status::DataLoss("empty frame body");
  uint32_t actual = Crc32c(body.data(), body.size());
  if (actual != crc) {
    return Status::DataLoss("frame CRC mismatch (corrupt or torn frame)");
  }
  Frame frame;
  frame.opcode = static_cast<Opcode>(static_cast<uint8_t>(body[0]));
  frame.payload.assign(body.data() + 1, body.size() - 1);
  return frame;
}

void AppendValue(std::string* out, const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      PutU8(out, kTagNull);
      return;
    case ValueType::kBool:
      PutU8(out, kTagBool);
      PutU8(out, value.AsBool() ? 1 : 0);
      return;
    case ValueType::kInt64:
      PutU8(out, kTagInt64);
      io::PutI64(out, value.AsInt64());
      return;
    case ValueType::kFloat64:
      PutU8(out, kTagFloat64);
      io::PutF64(out, value.AsFloat64());
      return;
    case ValueType::kString:
      PutU8(out, kTagString);
      io::PutStr(out, value.AsString());
      return;
  }
}

Result<Value> ReadValue(io::ByteReader* reader) {
  uint8_t tag = 0;
  if (!ReadU8(reader, &tag)) return Status::DataLoss("truncated value tag");
  return ReadTagged(tag, reader);
}

std::string EncodeSchema(const storage::Table& table) {
  std::string out;
  io::PutU32(&out, static_cast<uint32_t>(table.schema().num_fields()));
  for (const storage::Field& field : table.schema().fields()) {
    io::PutStr(&out, field.name);
    PutU8(&out, ColumnTypeToWire(field.type));
  }
  return out;
}

Result<storage::Table> DecodeSchema(std::string_view payload) {
  io::ByteReader reader(payload);
  uint32_t ncols = 0;
  if (!reader.ReadU32(&ncols)) return Status::DataLoss("truncated schema");
  // One name length prefix + one type byte is the minimum per column;
  // reject counts the payload cannot possibly hold.
  if (ncols > payload.size()) {
    return Status::DataLoss("schema column count exceeds payload");
  }
  std::vector<storage::Field> fields;
  fields.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    storage::Field field;
    uint8_t wire_type = 0;
    if (!reader.ReadStr(&field.name) || !ReadU8(&reader, &wire_type)) {
      return Status::DataLoss("truncated schema column " + std::to_string(i));
    }
    TELEIOS_ASSIGN_OR_RETURN(field.type, ColumnTypeFromWire(wire_type));
    fields.push_back(std::move(field));
  }
  return storage::Table(storage::Schema(std::move(fields)));
}

std::string EncodeRowChunk(const storage::Table& table, size_t begin,
                           size_t end) {
  std::string out;
  AppendRowChunk(&out, table, begin, end);
  return out;
}

Status DecodeRowChunk(std::string_view payload, storage::Table* table) {
  io::ByteReader reader(payload);
  uint32_t nrows = 0;
  if (!reader.ReadU32(&nrows)) return Status::DataLoss("truncated row chunk");
  const size_t ncols = table->num_columns();
  // A row is at least one tag byte per column; bound the declared count
  // by what the payload could hold before appending anything. A row of no
  // columns (a true ASK) takes no bytes: the frame limit bounds those.
  if (nrows > (ncols > 0 ? payload.size() : size_t{kMaxFrameBytes})) {
    return Status::DataLoss("row count exceeds chunk payload");
  }
  if (ncols == 0) {
    for (uint32_t r = 0; r < nrows; ++r) {
      TELEIOS_RETURN_IF_ERROR(table->AppendRow({}));
    }
  } else if (table->num_rows() == 0) {
    // The first chunk sizes the columns, by no more rows than the payload
    // could hold.
    const size_t rows = std::min<size_t>(nrows, payload.size() / ncols);
    for (size_t c = 0; c < ncols; ++c) table->column(c).Reserve(rows);
  }
  std::string text;  // a string cell, its buffer reused
  for (uint32_t r = 0; r < nrows && ncols > 0; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      storage::Column& col = table->column(c);
      uint8_t tag = 0;
      if (!ReadU8(&reader, &tag)) {
        return Status::DataLoss("truncated value tag");
      }
      if (tag == kTagNull) {
        col.AppendNull();
        continue;
      }
      if (tag != TagOf(col.type())) {
        // Appended as the Value it carries, so Column::Append's coercions
        // and refusals decide, as they did for every cell through
        // Table::AppendRow.
        TELEIOS_ASSIGN_OR_RETURN(Value value, ReadTagged(tag, &reader));
        Status appended = col.Append(value);
        if (!appended.ok()) {
          return Status::DataLoss("row chunk type mismatch: " +
                                  appended.message());
        }
        continue;
      }
      bool read = false;
      switch (col.type()) {
        case ColumnType::kBool: {
          uint8_t b = 0;
          read = ReadU8(&reader, &b);
          if (read) col.AppendBool(b != 0);
          break;
        }
        case ColumnType::kInt64: {
          int64_t v = 0;
          read = reader.ReadI64(&v);
          if (read) col.AppendInt64(v);
          break;
        }
        case ColumnType::kFloat64: {
          double v = 0;
          read = reader.ReadF64(&v);
          if (read) col.AppendFloat64(v);
          break;
        }
        case ColumnType::kString:
          read = reader.ReadStr(&text);
          if (read) col.AppendString(text);
          break;
      }
      if (!read) return Status::DataLoss("truncated row chunk cell");
    }
  }
  if (!reader.exhausted()) {
    return Status::DataLoss("trailing bytes after row chunk");
  }
  return Status::OK();
}

std::string EncodeTable(const storage::Table& table, size_t chunk_rows) {
  if (chunk_rows == 0) chunk_rows = 1;
  std::string out = EncodeSchema(table);
  for (size_t begin = 0; begin < table.num_rows(); begin += chunk_rows) {
    out += EncodeRowChunk(table, begin, begin + chunk_rows);
  }
  return out;
}

namespace {

/// The room a read asks for at least: a whole small reply, or several
/// pipelined requests, in one wakeup.
constexpr size_t kReadBytes = 64u << 10;

/// A buffer grown past this for one big frame is released once that
/// frame is consumed, so a connection does not pin its largest frame.
constexpr size_t kKeepBytes = 1u << 20;

}  // namespace

Status FrameReader::Fill(size_t n, int64_t timeout_millis) {
  if (end_ - begin_ >= n) return Status::OK();
  const auto start = std::chrono::steady_clock::now();
  // Room for n bytes, and at least as much free as is buffered: a caller
  // that asks for one byte more each time (an HTTP head) grows the buffer
  // geometrically, and every read may bring kReadBytes / 2 or more.
  const size_t room = std::max({n, kReadBytes, 2 * (end_ - begin_)});
  if (buf_.size() - begin_ < room) {
    // Slide the buffered bytes to the front, and grow to fit.
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (buf_.size() < room) buf_.resize(room);
  }
  while (end_ - begin_ < n) {
    Result<size_t> got =
        conn_->ReadSome(buf_.data() + end_, buf_.size() - end_, poll_millis_);
    if (!got.ok()) {
      // kUnavailable is a poll slice that passed with nothing to read.
      if (got.status().code() != StatusCode::kUnavailable) {
        return got.status();
      }
      if (keep_going_ != nullptr && !keep_going_(arg_)) {
        return Status::Cancelled("read abandoned (connection draining)");
      }
      if (timeout_millis >= 0 &&
          std::chrono::steady_clock::now() - start >=
              std::chrono::milliseconds(timeout_millis)) {
        return Status::Cancelled("read timed out after " +
                                 std::to_string(timeout_millis) + "ms");
      }
      continue;
    }
    if (got.value() == 0) {
      if (end_ == begin_) return Status::Unavailable("connection closed by peer");
      return Status::DataLoss("connection closed mid-message (" +
                              std::to_string(end_ - begin_) + "/" +
                              std::to_string(n) + " bytes)");
    }
    end_ += got.value();
  }
  return Status::OK();
}

void FrameReader::Consume(size_t n) {
  begin_ += std::min(n, end_ - begin_);
  if (begin_ == end_) {
    begin_ = end_ = 0;
    if (buf_.size() > kKeepBytes) buf_ = std::string();
  }
}

Result<Frame> FrameReader::Next() {
  TELEIOS_RETURN_IF_ERROR(Fill(kFrameHeaderBytes));
  uint32_t crc = 0;
  TELEIOS_ASSIGN_OR_RETURN(
      uint32_t length,
      DecodeFrameLength(buffered().substr(0, kFrameHeaderBytes), &crc));
  Status body = Fill(kFrameHeaderBytes + length,
                     frame_timeout_millis_ > 0 ? frame_timeout_millis_ : -1);
  if (!body.ok()) {
    return body.code() == StatusCode::kCancelled
               ? body
               : Status::DataLoss("frame body truncated: " + body.message());
  }
  Result<Frame> frame =
      DecodeFrameBody(buffered().substr(kFrameHeaderBytes, length), crc);
  Consume(kFrameHeaderBytes + length);
  return frame;
}

std::string EncodeHello(uint32_t version, std::string_view auth_token,
                        uint64_t deadline_millis, uint64_t client_id) {
  std::string out;
  io::PutU32(&out, version);
  io::PutStr(&out, auth_token);
  io::PutU64(&out, deadline_millis);
  if (client_id != 0) io::PutU64(&out, client_id);
  return out;
}

std::string EncodeQuery(Lang lang, std::string_view statement,
                        uint64_t deadline_millis, uint64_t request_id) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(lang));
  io::PutStr(&out, statement);
  io::PutU64(&out, deadline_millis);
  if (request_id != 0) io::PutU64(&out, request_id);
  return out;
}

std::string EncodePrepare(Lang lang, std::string_view statement) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(lang));
  io::PutStr(&out, statement);
  return out;
}

std::string EncodeExecute(uint32_t stmt_id, const std::vector<Value>& params,
                          uint64_t deadline_millis, uint64_t request_id) {
  std::string out;
  io::PutU32(&out, stmt_id);
  io::PutU32(&out, static_cast<uint32_t>(params.size()));
  for (const Value& p : params) AppendValue(&out, p);
  io::PutU64(&out, deadline_millis);
  if (request_id != 0) io::PutU64(&out, request_id);
  return out;
}

std::string EncodeCancel(uint64_t session_id, uint64_t cancel_key) {
  std::string out;
  io::PutU64(&out, session_id);
  io::PutU64(&out, cancel_key);
  return out;
}

std::string EncodeCloseStmt(uint32_t stmt_id) {
  std::string out;
  io::PutU32(&out, stmt_id);
  return out;
}

std::string EncodeWelcome(uint32_t version, uint64_t session_id,
                          uint64_t cancel_key) {
  std::string out;
  io::PutU32(&out, version);
  io::PutU64(&out, session_id);
  io::PutU64(&out, cancel_key);
  return out;
}

std::string EncodeError(const Status& status) {
  std::string out;
  io::PutU32(&out, static_cast<uint32_t>(status.code()));
  io::PutStr(&out, status.message());
  return out;
}

std::string EncodeDone(uint64_t total_rows, uint64_t chunks) {
  std::string out;
  io::PutU64(&out, total_rows);
  io::PutU64(&out, chunks);
  return out;
}

std::string EncodeStmtReady(uint32_t stmt_id) {
  std::string out;
  io::PutU32(&out, stmt_id);
  return out;
}

Status DecodeError(std::string_view payload) {
  io::ByteReader reader(payload);
  uint32_t code = 0;
  std::string message;
  if (!reader.ReadU32(&code) || !reader.ReadStr(&message)) {
    return Status::DataLoss("truncated ERROR frame");
  }
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Internal("server error with unknown code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

bool IsMutatingStatement(Lang lang, std::string_view statement) {
  std::string_view head = StrTrim(statement);
  for (;;) {
    size_t end = 0;
    while (end < head.size() &&
           std::isalpha(static_cast<unsigned char>(head[end]))) {
      ++end;
    }
    std::string word = StrLower(head.substr(0, end));
    switch (lang) {
      case Lang::kSql:
      case Lang::kSciQl:
        return word == "insert" || word == "update" || word == "delete" ||
               word == "create" || word == "drop" || word == "alter" ||
               word == "truncate";
      case Lang::kStSparql:
        if (word == "insert" || word == "delete") return true;
        // Past the prologue: PREFIX p: <iri> and BASE <iri>, each ending
        // with its IRI's '>'.
        if (word != "prefix" && word != "base") return false;
        end = head.find('>');
        if (end == std::string_view::npos) return false;
        head = StrTrim(head.substr(end + 1));
        continue;
    }
    return false;
  }
}

Result<std::string> BindParameters(const std::string& text,
                                   const std::vector<Value>& params) {
  std::string out;
  out.reserve(text.size() + params.size() * 8);
  size_t next = 0;
  char quote = '\0';
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (quote != '\0') {
      out += c;
      if (c == quote) quote = '\0';
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      out += c;
      continue;
    }
    if (c == '?') {
      if (next >= params.size()) {
        return Status::InvalidArgument(
            "statement has more '?' placeholders than the " +
            std::to_string(params.size()) + " bound parameters");
      }
      out += SqlLiteral(params[next++]);
      continue;
    }
    out += c;
  }
  if (next != params.size()) {
    return Status::InvalidArgument(
        std::to_string(params.size()) + " parameters bound but only " +
        std::to_string(next) + " '?' placeholders in the statement");
  }
  return out;
}

}  // namespace teleios::server
