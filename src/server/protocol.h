#ifndef TELEIOS_SERVER_PROTOCOL_H_
#define TELEIOS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "io/codec.h"
#include "server/transport.h"
#include "storage/table.h"

namespace teleios::server {

/// The TELEIOS wire protocol: a length-prefixed, CRC-framed binary
/// protocol spoken between teleios_server and its clients (the C++
/// client library, teleios_cli, bench_server).
///
/// A connection opens with a 4-byte magic preamble (kMagic) so the
/// server can share one port with the HTTP/JSON facade — anything that
/// does not start with the magic is treated as an HTTP request. After
/// the preamble, every message in either direction is one frame:
///
///   u32 length   | body length in bytes (opcode byte included)
///   u32 crc      | CRC32C over the `length` body bytes that follow
///   u8  opcode   | Opcode below
///   ...payload   | length - 1 bytes, opcode-specific
///
/// All integers are little-endian (the codec in io/codec.h). `length`
/// is bounded by kMaxFrameBytes: an oversized prefix is a protocol
/// error, never an allocation — a hostile 4-GiB length cannot make the
/// server reserve 4 GiB.
///
/// Session lifecycle: the client's first frame must be HELLO (protocol
/// version + optional auth token + optional default deadline). The
/// server replies WELCOME carrying the session id and a cancel key, or
/// ERROR and closes. Then QUERY / PREPARE / EXECUTE / CANCEL /
/// CLOSE_STMT frames flow until GOODBYE or disconnect. Results stream
/// back as SCHEMA, zero or more ROWS chunks (bounded by the server's
/// chunk size and charged to the session budget while in flight), and a
/// final DONE — so a million-row result never materializes twice on the
/// server side and a slow reader backpressures the stream through the
/// socket send buffer instead of growing the heap. The server writes a
/// reply's SCHEMA in one socket write with its first ROWS chunk and its
/// DONE with its last, so a reply of at most one chunk is one write; the
/// frames themselves are the same either way.
/// Several client payloads end in optional version-2 trailing fields
/// (marked [v2] below): a v1 encoder simply stops earlier, and the
/// decoder reads the extra field only when bytes remain — both
/// directions interoperate across the version bump.
enum class Opcode : uint8_t {
  // client -> server
  kHello = 1,      // u32 version | str auth_token | u64 deadline_millis
                   //   | [v2] u64 client_id
  kQuery = 2,      // u8 lang | str statement | u64 deadline_millis
                   //   | [v2] u64 request_id
  kPrepare = 3,    // u8 lang | str statement
  kExecute = 4,    // u32 stmt_id | u32 nparams | params | u64 deadline_millis
                   //   | [v2] u64 request_id
  kCancel = 5,     // u64 session_id | u64 cancel_key
  kCloseStmt = 6,  // u32 stmt_id
  kGoodbye = 7,    // empty
  kPing = 8,       // opaque payload, echoed back — the lease heartbeat

  // server -> client
  kWelcome = 64,   // u32 version | u64 session_id | u64 cancel_key
  kError = 65,     // u32 status_code | str message
  kSchema = 66,    // u32 ncols | (str name, u8 column_type)*
  kRows = 67,      // u32 nrows | nrows * ncols tagged values
  kDone = 68,      // u64 total_rows | u64 chunks
  kStmtReady = 69, // u32 stmt_id
  kPong = 70,      // the PING payload, echoed
};

const char* OpcodeName(Opcode op);

/// Query languages multiplexed over one connection — the observatory's
/// three database-tier entry points.
enum class Lang : uint8_t {
  kSql = 1,
  kSciQl = 2,
  kStSparql = 3,
};

const char* LangName(Lang lang);
Result<Lang> ParseLang(std::string_view name);

/// Protocol version spoken by this build. A HELLO with a newer major
/// version is refused (kInvalidArgument), mirroring the forward-compat
/// guards on the on-disk formats. Version 2 added PING/PONG heartbeats
/// and the optional client_id / request_id trailing fields (idempotent
/// retry); v1 clients are still accepted.
inline constexpr uint32_t kProtocolVersion = 2;

/// Connection preamble distinguishing binary clients from HTTP ones.
inline constexpr char kMagic[4] = {'T', 'E', 'O', '1'};

/// Hard bound on one frame body; an incoming length above this is a
/// protocol error before any allocation happens. Row chunks are sized
/// by the server to stay far below it.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// One decoded frame: the opcode plus its raw payload bytes.
struct Frame {
  Opcode opcode = Opcode::kError;
  std::string payload;
};

/// Bytes of a frame header: the u32 length and the u32 CRC.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Appends one encoded frame (header + CRC + body) to `out`.
void AppendFrame(std::string* out, Opcode opcode, std::string_view payload);

/// Appends one ROWS frame holding rows [begin, end) of `table`, encoded
/// in place: AppendFrame(out, kRows, EncodeRowChunk(...)) without the
/// intermediate payload.
void AppendRowsFrame(std::string* out, const storage::Table& table,
                     size_t begin, size_t end);

/// Parses the 8-byte frame header. Returns the body length (opcode +
/// payload) to read next and the CRC it must match; kDataLoss when the
/// length field is zero or exceeds kMaxFrameBytes.
Result<uint32_t> DecodeFrameLength(std::string_view header, uint32_t* crc);

/// Validates `body` (opcode byte + payload) against `crc` and splits it
/// into a Frame. kDataLoss on CRC mismatch or empty body.
Result<Frame> DecodeFrameBody(std::string_view body, uint32_t crc);

// --- tagged scalar values --------------------------------------------------

/// Appends one tagged Value (u8 type tag + payload).
void AppendValue(std::string* out, const Value& value);

/// Reads one tagged Value; kDataLoss on a bad tag or truncation.
Result<Value> ReadValue(io::ByteReader* reader);

// --- result tables ---------------------------------------------------------

/// SCHEMA payload for `table` (column names + types).
std::string EncodeSchema(const storage::Table& table);

/// Decodes a SCHEMA payload into an empty table with that schema.
Result<storage::Table> DecodeSchema(std::string_view payload);

/// ROWS payload holding rows [begin, end) of `table`, row-major tagged
/// values (AppendValue's bytes), read straight off the typed columns.
std::string EncodeRowChunk(const storage::Table& table, size_t begin,
                           size_t end);

/// Appends a ROWS payload onto `table` (whose schema came from
/// DecodeSchema), cell by cell into the typed columns. A cell whose tag
/// is not its column's type is appended as a Value, with Column::Append's
/// coercions. kDataLoss on truncation/type mismatch.
Status DecodeRowChunk(std::string_view payload, storage::Table* table);

/// Whole table as one SCHEMA payload + row payloads of `chunk_rows` —
/// the canonical byte image used by tests to prove streamed results are
/// byte-identical to in-process execution.
std::string EncodeTable(const storage::Table& table, size_t chunk_rows);

// --- reading frames --------------------------------------------------------

/// The one reader of a connection's bytes, on both ends of the wire. A
/// read takes whatever has arrived, up to the buffer's free space, so one
/// wakeup brings a whole small reply or several pipelined requests; the
/// bytes past the frame in hand wait in the buffer for the next call.
/// The server also sniffs the preamble and reads HTTP requests through
/// it, so nothing it buffered past those is lost.
///
/// Reads wait in `poll_millis` slices and ask `keep_going` (nullptr:
/// never stop) between them; false abandons the read with kCancelled,
/// which is how the server's handlers notice a drain. Movable; the
/// connection must outlive the reader.
class FrameReader {
 public:
  FrameReader() = default;
  /// `frame_timeout_millis` > 0 bounds how long a frame's body may take
  /// to follow its header (kCancelled past it); 0 waits as keep_going
  /// allows.
  explicit FrameReader(Connection* conn, int poll_millis = 250,
                       bool (*keep_going)(void*) = nullptr,
                       void* arg = nullptr, int64_t frame_timeout_millis = 0)
      : conn_(conn),
        poll_millis_(poll_millis),
        keep_going_(keep_going),
        arg_(arg),
        frame_timeout_millis_(frame_timeout_millis) {}

  /// Buffers at least `n` bytes. kUnavailable on a clean EOF with nothing
  /// buffered, kDataLoss on EOF after some bytes, kCancelled when
  /// keep_going says stop or `timeout_millis` (when >= 0) passes first;
  /// a transport error as the transport reported it.
  Status Fill(size_t n, int64_t timeout_millis = -1);

  /// The bytes buffered and not consumed yet.
  std::string_view buffered() const {
    return std::string_view(buf_).substr(begin_, end_ - begin_);
  }
  /// Drops the first `n` buffered bytes.
  void Consume(size_t n);

  /// The next frame. kUnavailable on a clean EOF between frames,
  /// kCancelled as Fill, kDataLoss for a malformed, oversized, corrupt or
  /// torn frame; the length bound is checked before the body is read.
  Result<Frame> Next();

 private:
  Connection* conn_ = nullptr;
  int poll_millis_ = 250;
  bool (*keep_going_)(void*) = nullptr;
  void* arg_ = nullptr;
  int64_t frame_timeout_millis_ = 0;
  /// Bytes [begin_, end_) of buf_ are buffered; the rest is free room.
  std::string buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

// --- message payload builders (client side) --------------------------------

/// `client_id` (v2) is the client's stable identity for the server's
/// idempotent-retry dedup window — it survives reconnects, unlike the
/// session id; 0 omits the field (v1 shape).
std::string EncodeHello(uint32_t version, std::string_view auth_token,
                        uint64_t deadline_millis, uint64_t client_id = 0);
/// `request_id` (v2) tags a mutating statement for exactly-once retry;
/// 0 omits the field (v1 shape / read-only statements).
std::string EncodeQuery(Lang lang, std::string_view statement,
                        uint64_t deadline_millis, uint64_t request_id = 0);
std::string EncodePrepare(Lang lang, std::string_view statement);
std::string EncodeExecute(uint32_t stmt_id, const std::vector<Value>& params,
                          uint64_t deadline_millis, uint64_t request_id = 0);
std::string EncodeCancel(uint64_t session_id, uint64_t cancel_key);
std::string EncodeCloseStmt(uint32_t stmt_id);
std::string EncodeWelcome(uint32_t version, uint64_t session_id,
                          uint64_t cancel_key);
std::string EncodeError(const Status& status);
std::string EncodeDone(uint64_t total_rows, uint64_t chunks);
std::string EncodeStmtReady(uint32_t stmt_id);

/// Decodes an ERROR payload back into the Status it carried (unknown
/// codes map to kInternal so a newer server cannot crash an old client).
Status DecodeError(std::string_view payload);

/// True when `statement` looks like it changes state — the client-side
/// classifier deciding which statements get a retry request id, and the
/// server's choice between an stSPARQL update and a query. First keyword
/// based: SQL/SciQL INSERT/UPDATE/DELETE/CREATE/DROP/ALTER, stSPARQL
/// INSERT/DELETE past any PREFIX/BASE declarations. Conservative in the
/// safe direction:
/// misclassifying a read as mutating costs one dedup-window slot;
/// statements the parser rejects mutate nothing either way.
bool IsMutatingStatement(Lang lang, std::string_view statement);

/// Substitutes `?` placeholders (outside string literals) in a prepared
/// statement's text with SQL-literal renderings of `params`; errors when
/// the count does not match the placeholders.
Result<std::string> BindParameters(const std::string& text,
                                   const std::vector<Value>& params);

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_PROTOCOL_H_
