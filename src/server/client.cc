#include "server/client.h"

#include <utility>

#include "io/codec.h"

namespace teleios::server {

Result<Client> Client::Connect(const std::string& host, int port,
                               const ClientOptions& options) {
  Client client;
  TELEIOS_ASSIGN_OR_RETURN(client.conn_,
                           GetTransport()->Connect(host, port));
  client.reader_ = FrameReader(client.conn_.get());
  std::string hello(kMagic, sizeof(kMagic));
  AppendFrame(&hello, Opcode::kHello,
              EncodeHello(kProtocolVersion, options.auth_token,
                          options.default_deadline_millis,
                          options.client_id));
  TELEIOS_RETURN_IF_ERROR(client.conn_->WriteAll(hello));
  TELEIOS_ASSIGN_OR_RETURN(Frame frame, client.ReadFrame());
  if (frame.opcode == Opcode::kError) return DecodeError(frame.payload);
  if (frame.opcode != Opcode::kWelcome) {
    return Status::DataLoss("expected WELCOME, got " +
                            std::string(OpcodeName(frame.opcode)));
  }
  io::ByteReader reader(frame.payload);
  uint32_t version = 0;
  if (!reader.ReadU32(&version) || !reader.ReadU64(&client.session_id_) ||
      !reader.ReadU64(&client.cancel_key_) || !reader.exhausted()) {
    return Status::DataLoss("malformed WELCOME payload");
  }
  client.default_deadline_millis_ = options.default_deadline_millis;
  return client;
}

Status Client::SendFrame(Opcode opcode, std::string_view payload) {
  std::string out;
  AppendFrame(&out, opcode, payload);
  return conn_->WriteAll(out);
}

Status Client::SendQuery(Lang lang, const std::string& statement,
                         uint64_t deadline_millis, uint64_t request_id) {
  return SendFrame(Opcode::kQuery,
                   EncodeQuery(lang, statement, deadline_millis, request_id));
}

Result<storage::Table> Client::ReadResult() {
  TELEIOS_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.opcode == Opcode::kError) return DecodeError(frame.payload);
  if (frame.opcode != Opcode::kSchema) {
    return Status::DataLoss("expected SCHEMA, got " +
                            std::string(OpcodeName(frame.opcode)));
  }
  TELEIOS_ASSIGN_OR_RETURN(storage::Table table,
                           DecodeSchema(frame.payload));
  for (;;) {
    TELEIOS_ASSIGN_OR_RETURN(frame, ReadFrame());
    switch (frame.opcode) {
      case Opcode::kRows:
        TELEIOS_RETURN_IF_ERROR(DecodeRowChunk(frame.payload, &table));
        break;
      case Opcode::kDone: {
        io::ByteReader reader(frame.payload);
        if (!reader.ReadU64(&last_total_rows_) ||
            !reader.ReadU64(&last_chunks_) || !reader.exhausted()) {
          return Status::DataLoss("malformed DONE payload");
        }
        if (last_total_rows_ != table.num_rows()) {
          return Status::DataLoss(
              "stream delivered " + std::to_string(table.num_rows()) +
              " rows but DONE declared " +
              std::to_string(last_total_rows_));
        }
        return table;
      }
      case Opcode::kError:
        // Mid-stream abort (budget refusal, draining server): the
        // partial table is discarded, the connection stays framed.
        return DecodeError(frame.payload);
      default:
        return Status::DataLoss("unexpected " +
                                std::string(OpcodeName(frame.opcode)) +
                                " inside a result stream");
    }
  }
}

Result<storage::Table> Client::Query(Lang lang, const std::string& statement,
                                     uint64_t deadline_millis,
                                     uint64_t request_id) {
  TELEIOS_RETURN_IF_ERROR(
      SendQuery(lang, statement, deadline_millis, request_id));
  return ReadResult();
}

Result<uint32_t> Client::Prepare(Lang lang, const std::string& statement) {
  TELEIOS_RETURN_IF_ERROR(
      SendFrame(Opcode::kPrepare, EncodePrepare(lang, statement)));
  TELEIOS_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.opcode == Opcode::kError) return DecodeError(frame.payload);
  if (frame.opcode != Opcode::kStmtReady) {
    return Status::DataLoss("expected STMT_READY, got " +
                            std::string(OpcodeName(frame.opcode)));
  }
  io::ByteReader reader(frame.payload);
  uint32_t stmt_id = 0;
  if (!reader.ReadU32(&stmt_id) || !reader.exhausted()) {
    return Status::DataLoss("malformed STMT_READY payload");
  }
  return stmt_id;
}

Result<storage::Table> Client::Execute(uint32_t stmt_id,
                                       const std::vector<Value>& params,
                                       uint64_t deadline_millis,
                                       uint64_t request_id) {
  TELEIOS_RETURN_IF_ERROR(
      SendFrame(Opcode::kExecute, EncodeExecute(stmt_id, params,
                                                deadline_millis, request_id)));
  return ReadResult();
}

Status Client::ReadAck() {
  TELEIOS_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.opcode == Opcode::kError) return DecodeError(frame.payload);
  if (frame.opcode != Opcode::kDone) {
    return Status::DataLoss("expected DONE, got " +
                            std::string(OpcodeName(frame.opcode)));
  }
  return Status::OK();
}

Status Client::CloseStmt(uint32_t stmt_id) {
  TELEIOS_RETURN_IF_ERROR(
      SendFrame(Opcode::kCloseStmt, EncodeCloseStmt(stmt_id)));
  return ReadAck();
}

Status Client::Cancel(uint64_t session_id, uint64_t cancel_key) {
  TELEIOS_RETURN_IF_ERROR(
      SendFrame(Opcode::kCancel, EncodeCancel(session_id, cancel_key)));
  return ReadAck();
}

Status Client::Ping() {
  std::string payload;
  io::PutU64(&payload, ++ping_seq_);
  TELEIOS_RETURN_IF_ERROR(SendFrame(Opcode::kPing, payload));
  TELEIOS_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.opcode == Opcode::kError) return DecodeError(frame.payload);
  if (frame.opcode != Opcode::kPong) {
    return Status::DataLoss("expected PONG, got " +
                            std::string(OpcodeName(frame.opcode)));
  }
  if (frame.payload != payload) {
    return Status::DataLoss("PONG echoed the wrong payload");
  }
  return Status::OK();
}

Status Client::Goodbye() {
  TELEIOS_RETURN_IF_ERROR(SendFrame(Opcode::kGoodbye, {}));
  conn_->Close();
  return Status::OK();
}

}  // namespace teleios::server
