// End-to-end tests for the network service layer (src/server/): wire
// protocol framing, sessions, governed execution, streamed results,
// cancellation, shedding, the HTTP facade, and graceful drain.
//
// The central acceptance invariant: results streamed over a socket are
// BYTE-IDENTICAL to in-process execution (compared through
// EncodeTable's canonical image), and a connection that dies — cleanly
// or mid-stream — leaks nothing: no sys.sessions row, no sys.queries
// entry, no budget residue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/observatory.h"
#include "eo/scene.h"
#include "governor/memory_budget.h"
#include "io/codec.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/fault_transport.h"
#include "server/http.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket.h"
#include "server/transport.h"
#include "vault/vault.h"

namespace teleios::server {
namespace {

namespace fs = std::filesystem;
using core::VirtualEarthObservatory;

/// Waits until `pred` holds or ~5s elapse; returns its final value.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("server_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    eo::SceneSpec spec;
    spec.width = 64;
    spec.height = 64;
    spec.num_fires = 2;
    spec.name = "msg";
    auto scene = eo::GenerateScene(spec);
    ASSERT_TRUE(scene.ok());
    ASSERT_TRUE(
        vault::WriteTer(scene->ToTerRaster(), (dir_ / "msg.ter").string())
            .ok());
    ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
    ASSERT_TRUE(veo_.RegisterRaster("msg").ok());
    MakeBigTable("big", 4096);
    // Roomy queue so dozens of wire statements line up rather than
    // shed; shedding has its own dedicated test.
    governor::AdmissionConfig admission;
    admission.max_concurrent = 8;
    admission.max_queue = 128;
    veo_.SetAdmissionConfig(admission);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      ASSERT_TRUE(server_->Shutdown().ok());
    }
    server_.reset();
    fs::remove_all(dir_);
  }

  void MakeBigTable(const std::string& name, size_t n) {
    auto table = std::make_shared<storage::Table>(
        storage::Schema({{"x", storage::ColumnType::kInt64}}));
    for (size_t i = 0; i < n; ++i) {
      table->column(0).AppendInt64(static_cast<int64_t>(i));
    }
    ASSERT_TRUE(veo_.catalog().CreateTable(name, table).ok());
  }

  /// Starts the fixture server (chunk_rows deliberately small so even
  /// modest results stream as several ROWS frames).
  void StartServer(ServerConfig config = {}) {
    config.port = 0;
    if (config.chunk_rows == 1024) config.chunk_rows = 128;
    server_ = std::make_unique<TeleiosServer>(&veo_, config);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client MustConnect(const ClientOptions& options = {}) {
    auto client = Client::Connect("127.0.0.1", server_->port(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  fs::path dir_;
  VirtualEarthObservatory veo_;
  std::unique_ptr<TeleiosServer> server_;
};

// ---------------------------------------------------------------------------
// protocol unit coverage (no server needed)
// ---------------------------------------------------------------------------

TEST(ProtocolTest, HttpJsonWritesNullForNonFiniteDoubles) {
  storage::Table table(
      storage::Schema({{"v", storage::ColumnType::kFloat64}}));
  for (double v : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(), 0.25}) {
    table.column(0).AppendFloat64(v);
  }
  std::string json = TableToJson(table);
  EXPECT_NE(json.find("\"rows\":[[null],[null],[null],[0.25]]"),
            std::string::npos)
      << json;
}

TEST(ProtocolTest, TableRoundTripsThroughSchemaAndRowChunks) {
  storage::Table table(
      storage::Schema({{"id", storage::ColumnType::kInt64},
                       {"name", storage::ColumnType::kString},
                       {"score", storage::ColumnType::kFloat64},
                       {"ok", storage::ColumnType::kBool}}));
  for (int64_t i = 0; i < 10; ++i) {
    table.column(0).AppendInt64(i);
    table.column(1).AppendString("row-" + std::to_string(i));
    table.column(2).AppendFloat64(i * 0.5);
    table.column(3).AppendBool(i % 2 == 0);
  }
  auto decoded = DecodeSchema(EncodeSchema(table));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(DecodeRowChunk(EncodeRowChunk(table, 0, 4), &*decoded).ok());
  ASSERT_TRUE(DecodeRowChunk(EncodeRowChunk(table, 4, 10), &*decoded).ok());
  EXPECT_EQ(EncodeTable(table, 7), EncodeTable(*decoded, 7));
}

TEST(ProtocolTest, ZeroColumnChunksKeepTheirRowCount) {
  // A true ASK: one row of no columns.
  storage::Table ask = storage::Table().Take({0});
  auto decoded = DecodeSchema(EncodeSchema(ask));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(DecodeRowChunk(EncodeRowChunk(ask, 0, 1), &*decoded).ok());
  EXPECT_EQ(decoded->num_rows(), 1u);
  // A hostile count is refused before any row is added, not looped over.
  std::string hostile;
  io::PutU32(&hostile, std::numeric_limits<uint32_t>::max());
  auto refused = DecodeRowChunk(hostile, &*decoded);
  EXPECT_EQ(refused.code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded->num_rows(), 1u);
}

TEST(ProtocolTest, StSparqlUpdatesAreClassifiedPastThePrologue) {
  const struct {
    const char* statement;
    bool mutating;
  } kCases[] = {
      {"INSERT DATA { <a> <b> <c> }", true},
      {"  delete where { ?s ?p ?o }", true},
      {"PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:p ex:b }", true},
      {"prefix ex: <http://example.org/>\nprefix y: <urn:y>\n"
       "DELETE { ?s ex:p ?o } WHERE { ?s ex:p ?o }",
       true},
      {"BASE <http://example.org/> INSERT DATA { <a> <b> <c> }", true},
      {"BASE <http://example.org/> PREFIX ex: <http://example.org/> "
       "DELETE DATA { ex:a ex:p ex:b }",
       true},
      {"PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o }",
       false},
      {"PREFIX ex: <http://example.org/> ASK { ex:a ex:p ex:b }", false},
      {"PREFIX insert: <http://insert.example.org/delete#> "
       "SELECT ?s WHERE { ?s insert:p ?o }",
       false},
      {"SELECT ?s WHERE { ?s <http://example.org/insert> ?o }", false},
      {"PREFIX ex: <http://example.org/", false},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(IsMutatingStatement(Lang::kStSparql, c.statement), c.mutating)
        << c.statement;
  }
  // SQL's PREFIX is no keyword.
  EXPECT_FALSE(IsMutatingStatement(Lang::kSql, "PREFIX <x> INSERT"));
  EXPECT_TRUE(IsMutatingStatement(Lang::kSql, "update t set v = 1"));
}

TEST(ProtocolTest, FrameLengthBoundsAreEnforcedBeforeAllocation) {
  std::string frame;
  AppendFrame(&frame, Opcode::kGoodbye, "");
  uint32_t crc = 0;
  auto ok_len = DecodeFrameLength(std::string_view(frame).substr(0, 8), &crc);
  ASSERT_TRUE(ok_len.ok());
  EXPECT_EQ(*ok_len, 1u);

  // A hostile 4-GiB length must be rejected from the 8 header bytes
  // alone — no allocation, no read of a body that will never arrive.
  std::string hostile(8, '\0');
  hostile[0] = '\xff';
  hostile[1] = '\xff';
  hostile[2] = '\xff';
  hostile[3] = '\xff';
  auto bad = DecodeFrameLength(hostile, &crc);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolTest, CrcMismatchIsDataLoss) {
  std::string frame;
  AppendFrame(&frame, Opcode::kQuery, "payload");
  uint32_t crc = 0;
  auto length = DecodeFrameLength(std::string_view(frame).substr(0, 8), &crc);
  ASSERT_TRUE(length.ok());
  std::string body = frame.substr(8);
  body.back() ^= 0x01;  // flip one payload bit
  auto decoded = DecodeFrameBody(body, crc);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolTest, BindParametersSubstitutesOutsideLiterals) {
  auto bound = BindParameters(
      "SELECT * FROM t WHERE a = ? AND b = '?' AND c = ?",
      {Value(int64_t{42}), Value(std::string("it's"))});
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound,
            "SELECT * FROM t WHERE a = 42 AND b = '?' AND c = 'it''s'");

  auto too_few = BindParameters("SELECT ?", {});
  EXPECT_FALSE(too_few.ok());
  auto too_many =
      BindParameters("SELECT 1", {Value(int64_t{1})});
  EXPECT_FALSE(too_many.ok());
}

/// A table with a NULL, a bool, an int64, a double and a string cell in
/// every column's mix, for the codec's golden bytes.
storage::Table MixedCellTable() {
  storage::Table table(
      storage::Schema({{"b", storage::ColumnType::kBool},
                       {"i", storage::ColumnType::kInt64},
                       {"d", storage::ColumnType::kFloat64},
                       {"s", storage::ColumnType::kString}}));
  const std::vector<std::vector<Value>> rows = {
      {Value(true), Value(int64_t{42}), Value(1.5), Value(std::string("alpha"))},
      {Value(), Value(int64_t{-7}), Value(), Value(std::string(""))},
      {Value(false), Value(), Value(-0.25), Value()},
      {Value(), Value(), Value(), Value(std::string("alpha"))},
  };
  for (const std::vector<Value>& row : rows) {
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

TEST(ProtocolTest, RowChunkBytesMatchTheGoldenImage) {
  // Captured from the per-cell Value encoder: the typed encoder must put
  // the same bytes on the wire, and the decoder must read them back.
  const storage::Table table = MixedCellTable();
  EXPECT_EQ(Hex(EncodeRowChunk(table, 0, 4)),
            "040000000101022a0000000000000003000000000000f83f0405000000616c"
            "7068610002f9ffffffffffffff00040000000001000003000000000000d0bf"
            "000000000405000000616c706861");
  EXPECT_EQ(Hex(EncodeRowChunk(table, 1, 3)),
            "020000000002f9ffffffffffffff00040000000001000003000000000000d0"
            "bf00");
  EXPECT_EQ(Hex(EncodeRowChunk(table, 4, 4)), "00000000");
  EXPECT_EQ(Hex(EncodeSchema(table)),
            "04000000010000006200010000006901010000006402010000007303");
  auto decoded = DecodeSchema(EncodeSchema(table));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(DecodeRowChunk(EncodeRowChunk(table, 0, 4), &*decoded).ok());
  EXPECT_EQ(EncodeTable(*decoded, 3), EncodeTable(table, 3));
  // AppendRowsFrame is AppendFrame over the same payload.
  std::string in_place;
  std::string framed;
  AppendRowsFrame(&in_place, table, 1, 3);
  AppendFrame(&framed, Opcode::kRows, EncodeRowChunk(table, 1, 3));
  EXPECT_EQ(Hex(in_place), Hex(framed));
}

TEST(ProtocolTest, MismatchedCellTagsTakeTheValuePath) {
  storage::Table target(
      storage::Schema({{"d", storage::ColumnType::kFloat64},
                       {"i", storage::ColumnType::kInt64}}));
  // An int64 cell in a DOUBLE column and a double in a BIGINT one are
  // coerced, as Column::Append coerces them.
  std::string coerced;
  io::PutU32(&coerced, 1);
  AppendValue(&coerced, Value(int64_t{3}));
  AppendValue(&coerced, Value(2.0));
  ASSERT_TRUE(DecodeRowChunk(coerced, &target).ok());
  EXPECT_EQ(target.Get(0, 0).AsFloat64(), 3.0);
  EXPECT_EQ(target.Get(0, 1).AsInt64(), 2);
  // A string in a DOUBLE column is refused.
  std::string refused;
  io::PutU32(&refused, 1);
  AppendValue(&refused, Value(std::string("x")));
  AppendValue(&refused, Value(int64_t{1}));
  Status st = DecodeRowChunk(refused, &target);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("type mismatch"), std::string::npos)
      << st.ToString();
  // A truncated cell and trailing bytes are refused too.
  std::string truncated;
  io::PutU32(&truncated, 1);
  AppendValue(&truncated, Value(1.0));
  truncated += std::string(1, '\x02');
  EXPECT_EQ(DecodeRowChunk(truncated, &target).code(), StatusCode::kDataLoss);
  std::string trailing;
  io::PutU32(&trailing, 0);
  trailing += "x";
  EXPECT_EQ(DecodeRowChunk(trailing, &target).code(), StatusCode::kDataLoss);
}

/// A connected pair of TCP connections on the real transport.
struct ConnectionPair {
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
};

ConnectionPair MustPair() {
  ConnectionPair pair;
  auto listener = GetTransport()->Listen(0, 4);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  pair.listener = std::move(listener).value();
  auto client = GetTransport()->Connect("127.0.0.1",
                                        pair.listener->bound_port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  pair.client = std::move(client).value();
  auto server = pair.listener->AcceptWithTimeout(5000);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  pair.server = std::move(server).value();
  return pair;
}

TEST(ProtocolTest, FrameReaderKeepsTheBytesAfterAFrame) {
  ConnectionPair pair = MustPair();
  std::string wire;
  AppendFrame(&wire, Opcode::kPing, "one");
  AppendFrame(&wire, Opcode::kPing, "two");
  AppendFrame(&wire, Opcode::kGoodbye, "");
  ASSERT_TRUE(pair.client->WriteAll(wire).ok());
  pair.client->ShutdownBoth();
  FrameReader reader(pair.server.get());
  for (const char* payload : {"one", "two"}) {
    auto frame = reader.Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->opcode, Opcode::kPing);
    EXPECT_EQ(frame->payload, payload);
  }
  auto goodbye = reader.Next();
  ASSERT_TRUE(goodbye.ok()) << goodbye.status().ToString();
  EXPECT_EQ(goodbye->opcode, Opcode::kGoodbye);
  // A clean EOF between frames.
  auto closed = reader.Next();
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);
}

TEST(ProtocolTest, FrameReaderTornFrameIsDataLoss) {
  std::string frame;
  AppendFrame(&frame, Opcode::kQuery, EncodeQuery(Lang::kSql, "SELECT 1", 0));
  // Cut inside the header, and inside the body.
  for (size_t cut : {size_t{3}, frame.size() - 2}) {
    ConnectionPair pair = MustPair();
    ASSERT_TRUE(pair.client->WriteAll(frame.substr(0, cut)).ok());
    pair.client->ShutdownBoth();
    FrameReader reader(pair.server.get());
    auto torn = reader.Next();
    ASSERT_FALSE(torn.ok()) << "cut at " << cut;
    EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << torn.status().ToString();
  }
  // A length past the frame bound is refused off the header alone.
  ConnectionPair pair = MustPair();
  std::string hostile(kFrameHeaderBytes, '\xff');
  ASSERT_TRUE(pair.client->WriteAll(hostile).ok());
  FrameReader reader(pair.server.get());
  auto refused = reader.Next();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// query streaming
// ---------------------------------------------------------------------------

// A CANCEL that sees the session executing reaches its statement: the
// state and the statement's token are set in one critical section, so
// there is no moment when the session reads "executing" with no token
// to cancel.
TEST(SessionTest, CancelReachesTheStatementOnceTheSessionIsExecuting) {
  SessionRegistry registry;
  std::shared_ptr<Session> session = registry.Open("peer", "binary", 0);
  session->set_state("idle");
  EXPECT_FALSE(session->CancelActiveStatement());
  std::shared_ptr<CancellationToken> token = session->BeginStatement(0);
  EXPECT_EQ(session->state(), "executing");
  EXPECT_TRUE(session->CancelActiveStatement());
  EXPECT_TRUE(token->cancelled());
  session->EndStatement();
  EXPECT_FALSE(session->CancelActiveStatement());
  registry.Close(session);
}

TEST_F(ServerTest, StreamedResultIsByteIdenticalToInProcess) {
  StartServer();
  Client client = MustConnect();
  const std::string sql = "SELECT x FROM big WHERE x % 7 = 3";
  auto streamed = client.Query(Lang::kSql, sql);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  auto in_process = veo_.Sql(sql);
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(EncodeTable(*streamed, 128), EncodeTable(*in_process, 128));
  // 4096/7 ≈ 585 matching rows over chunk_rows=128: a genuinely chunked
  // stream, not one frame.
  EXPECT_GT(client.last_chunks(), 1u);
  EXPECT_EQ(client.last_total_rows(), streamed->num_rows());
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, SchemaFrameCarriesDeclaredTypes) {
  ASSERT_TRUE(veo_.Sql("CREATE TABLE typed (id VARCHAR, n BIGINT)").ok());
  ASSERT_TRUE(veo_.Sql("INSERT INTO typed VALUES ('a', 1), ('b', NULL)").ok());
  StartServer();
  Client client = MustConnect();
  // No rows, and a column of NULLs: neither may fall back to DOUBLE.
  auto empty = client.Query(Lang::kSql,
                            "SELECT id, n FROM typed WHERE id = 'zzz'");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->num_rows(), 0u);
  EXPECT_EQ(empty->schema().ToString(), "(id VARCHAR, n BIGINT)");
  auto nulls = client.Query(Lang::kSql, "SELECT n FROM typed WHERE id = 'b'");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  ASSERT_EQ(nulls->num_rows(), 1u);
  EXPECT_EQ(nulls->schema().ToString(), "(n BIGINT)");
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, SixtyFourConcurrentMixedLanguageClients) {
  StartServer();
  struct Case {
    Lang lang;
    std::string statement;
  };
  const std::vector<Case> cases = {
      {Lang::kSql, "SELECT x FROM big WHERE x % 5 = 1"},
      {Lang::kSciQl, "SELECT count(*) AS n FROM msg WHERE LANDMASK > 0.5"},
      {Lang::kStSparql,
       "SELECT ?c WHERE { ?c a <http://www.w3.org/2002/07/owl#Class> }"},
  };
  // Expected canonical bytes per language, from in-process execution.
  std::vector<std::string> expected;
  for (const Case& c : cases) {
    Result<storage::Table> table = Status::Internal("not run");
    switch (c.lang) {
      case Lang::kSql:
        table = veo_.Sql(c.statement);
        break;
      case Lang::kSciQl:
        table = veo_.SciQl(c.statement);
        break;
      case Lang::kStSparql:
        table = veo_.StSparql(c.statement);
        break;
    }
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    expected.push_back(EncodeTable(*table, 64));
  }

  constexpr int kClients = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const Case& c = cases[i % cases.size()];
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      auto result = client->Query(c.lang, c.statement);
      if (!result.ok() ||
          EncodeTable(*result, 64) != expected[i % cases.size()]) {
        ++failures;
        return;
      }
      (void)client->Goodbye();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every connection unwound: no session rows left behind.
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
  EXPECT_GE(server_->sessions().opened_total(), 64u);
}

TEST_F(ServerTest, EngineErrorKeepsConnectionUsable) {
  StartServer();
  Client client = MustConnect();
  auto bad = client.Query(Lang::kSql, "SELECT FROM WHERE");
  EXPECT_FALSE(bad.ok());
  auto good = client.Query(Lang::kSql, "SELECT count(*) AS n FROM big");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->Get(0, 0).AsInt64(), 4096);
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, InvalidRegexPatternLeavesTheServerServing) {
  StartServer();
  Client client = MustConnect();
  auto triples = client.Query(Lang::kStSparql,
                              "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1");
  ASSERT_TRUE(triples.ok()) << triples.status().ToString();
  ASSERT_EQ(triples->num_rows(), 1u) << "the FILTER below must see a row";
  auto bad = client.Query(
      Lang::kStSparql,
      "SELECT ?s WHERE { ?s ?p ?o . FILTER(regex(str(?o), \"(\")) }");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->num_rows(), 0u);
  auto good = client.Query(Lang::kSql, "SELECT count(*) AS n FROM big");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->Get(0, 0).AsInt64(), 4096);
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, StSparqlUpdateStreamsCountTable) {
  StartServer();
  Client client = MustConnect();
  auto count = client.Query(
      Lang::kStSparql,
      "INSERT DATA { <http://ex.org/s> <http://ex.org/p> <http://ex.org/o> }");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count->num_rows(), 1u);
  EXPECT_GE(count->Get(0, 0).AsInt64(), 1);
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, PrefixedStSparqlUpdateRunsAsAnUpdate) {
  StartServer();
  const std::string update =
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:p ex:b }";
  Client client = MustConnect();
  auto count = client.Query(Lang::kStSparql, update);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count->num_rows(), 1u);
  EXPECT_EQ(count->Get(0, 0), Value(int64_t{1}));
  ASSERT_TRUE(client.Goodbye().ok());
  // Over HTTP too: the triple is there, so the count names a second one.
  const std::string body =
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:c ex:p ex:d }";
  auto sock = Socket::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->WriteAll("POST /query?lang=stsparql HTTP/1.1\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" +
                             body)
                  .ok());
  std::string response;
  char buf[4096];
  for (;;) {
    auto got = sock->ReadSome(buf, sizeof(buf), 5000);
    if (!got.ok() || *got == 0) break;
    response.append(buf, *got);
  }
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"rows\":[[1]]"), std::string::npos) << response;
}

TEST_F(ServerTest, AskAnswersAreRowCountsOverTheWire) {
  ASSERT_TRUE(veo_.StSparqlUpdate("INSERT DATA { <http://ex.org/s> "
                                  "<http://ex.org/p> <http://ex.org/o> }")
                  .ok());
  StartServer();
  Client client = MustConnect();
  auto yes = client.Query(
      Lang::kStSparql,
      "ASK { <http://ex.org/s> <http://ex.org/p> <http://ex.org/o> }");
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  EXPECT_EQ(yes->num_rows(), 1u);
  auto no = client.Query(
      Lang::kStSparql,
      "ASK { <http://ex.org/s> <http://ex.org/p> <http://ex.org/nothing> }");
  ASSERT_TRUE(no.ok()) << no.status().ToString();
  EXPECT_EQ(no->num_rows(), 0u);
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, ConcurrentStSparqlWritersKeepEveryAcknowledgedTriple) {
  // Wire updates from several sessions at once commit one at a time
  // through the write path, so none tears the store or loses a triple.
  StartServer();
  constexpr int kSessions = 4;
  constexpr int kWrites = 50;
  std::vector<std::vector<std::string>> acked(kSessions);
  std::vector<std::thread> writers;
  for (int w = 0; w < kSessions; ++w) {
    writers.emplace_back([&, w] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) return;
      for (int i = 0; i < kWrites; ++i) {
        std::string subject = "http://ex.org/w" + std::to_string(w) + "_" +
                              std::to_string(i);
        auto count = client->Query(
            Lang::kStSparql,
            "INSERT DATA { <" + subject + "> <http://ex.org/at> \"POINT (" +
                std::to_string(i) + " " + std::to_string(w) +
                ")\"^^<http://strdf.di.uoa.gr/ontology#WKT> }");
        if (count.ok() && count->num_rows() == 1 &&
            count->Get(0, 0) == Value(int64_t{1})) {
          acked[w].push_back(subject);
        }
      }
      (void)client->Goodbye();
    });
  }
  for (std::thread& writer : writers) writer.join();
  auto stored = veo_.StSparql("SELECT ?s WHERE { ?s <http://ex.org/at> ?g }");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  std::set<std::string> subjects;
  for (size_t r = 0; r < stored->num_rows(); ++r) {
    subjects.insert(stored->Get(r, 0).AsString());
  }
  size_t acknowledged = 0;
  for (const std::vector<std::string>& session : acked) {
    acknowledged += session.size();
    for (const std::string& subject : session) {
      EXPECT_EQ(subjects.count(subject), 1u) << subject;
    }
  }
  EXPECT_EQ(acknowledged, static_cast<size_t>(kSessions * kWrites));
  EXPECT_EQ(stored->num_rows(), acknowledged);
}

// ---------------------------------------------------------------------------
// prepared statements
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PrepareExecuteBindsPositionalParameters) {
  StartServer();
  Client client = MustConnect();
  auto stmt = client.Prepare(Lang::kSql,
                             "SELECT x FROM big WHERE x < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto five = client.Execute(*stmt, {Value(int64_t{5})});
  ASSERT_TRUE(five.ok()) << five.status().ToString();
  EXPECT_EQ(five->num_rows(), 5u);

  auto three = client.Execute(*stmt, {Value(int64_t{3})});
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->num_rows(), 3u);

  // Wrong arity is the client's error, reported without killing the
  // connection.
  auto wrong = client.Execute(*stmt, {});
  EXPECT_FALSE(wrong.ok());

  ASSERT_TRUE(client.CloseStmt(*stmt).ok());
  auto gone = client.Execute(*stmt, {Value(int64_t{5})});
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Goodbye().ok());
}

// ---------------------------------------------------------------------------
// cancellation & deadlines
// ---------------------------------------------------------------------------

TEST_F(ServerTest, CancelFrameStopsARunningStatement) {
  MakeBigTable("huge", 4u << 20);
  StartServer();
  Client victim = MustConnect();
  // Slow by construction: 64 chained modulo terms keep the predicate on
  // the interpreted per-row path, polling cancellation at every morsel
  // boundary, and would take tens of CPU seconds over 4M rows — however
  // late the controller's CANCEL lands, the statement is still running.
  std::string predicate;
  for (int t = 0; t < 64; ++t) {
    predicate += std::string(t > 0 ? " + " : "") + "(x * " +
                 std::to_string(37 + 2 * t) + " + x) % 1013";
  }
  const std::string slow = "SELECT x FROM huge WHERE " + predicate + " = -1";
  Result<storage::Table> outcome = Status::Internal("never ran");
  std::thread runner([&] { outcome = victim.Query(Lang::kSql, slow); });

  Client controller = MustConnect();
  ASSERT_TRUE(Eventually([&] {
    for (const SessionStats& s : server_->sessions().Snapshot()) {
      if (s.id == victim.session_id() && s.state != "idle" &&
          s.state != "handshake") {
        return true;
      }
    }
    return false;
  }));
  // A wrong key must not kill someone else's statement.
  auto refused =
      controller.Cancel(victim.session_id(), victim.cancel_key() + 1);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(
      controller.Cancel(victim.session_id(), victim.cancel_key()).ok());
  runner.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
      << outcome.status().ToString();

  // The victim's connection survived its statement's death.
  auto after = victim.Query(Lang::kSql, "SELECT count(*) AS n FROM big");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(victim.Goodbye().ok());
  ASSERT_TRUE(controller.Goodbye().ok());
}

TEST_F(ServerTest, PerStatementDeadlineCancelsCooperatively) {
  MakeBigTable("huge2", 4u << 20);
  StartServer();
  Client client = MustConnect();
  auto result = client.Query(
      Lang::kSql, "SELECT x FROM huge2 WHERE (x * 37 + x) % 1013 = 5",
      /*deadline_millis=*/30);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  ASSERT_TRUE(client.Goodbye().ok());
}

// ---------------------------------------------------------------------------
// failure modes: dead sockets, sheds, auth
// ---------------------------------------------------------------------------

TEST_F(ServerTest, KilledSocketMidStreamLeaksNothing) {
  MakeBigTable("wide", 512u << 10);
  ServerConfig config;
  config.chunk_rows = 64;
  StartServer(config);
  const size_t live_budgets_before = governor::AllBudgetStats().size();
  {
    Client client = MustConnect();
    ASSERT_TRUE(
        client.SendQuery(Lang::kSql, "SELECT x FROM wide").ok());
    // Take only the schema frame, then vanish mid-stream.
    auto schema = client.ReadFrame();
    ASSERT_TRUE(schema.ok());
    ASSERT_EQ(schema->opcode, Opcode::kSchema);
    client.connection().Close();
  }
  // The handler notices the dead socket (EPIPE on a ROWS write), the
  // session closes, its budget unregisters, and sys.queries drains.
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
  EXPECT_TRUE(Eventually([&] {
    return governor::AllBudgetStats().size() == live_budgets_before;
  }));
  // sys.queries holds exactly the introspecting statement itself.
  auto queries = veo_.Sql("SELECT id FROM sys.queries");
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(queries->num_rows(), 1u);
  // And the server still serves.
  Client again = MustConnect();
  auto result = again.Query(Lang::kSql, "SELECT count(*) AS n FROM big");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(again.Goodbye().ok());
}

TEST_F(ServerTest, OverflowConnectionsAreShedInProtocol) {
  ServerConfig config;
  config.max_sessions = 2;
  StartServer(config);
  Client first = MustConnect();
  Client second = MustConnect();
  // Binary client: refused with a framed kUnavailable ERROR.
  auto third = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable)
      << third.status().ToString();
  // HTTP client: refused with a 503.
  auto http = Socket::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(http.ok());
  ASSERT_TRUE(http->WriteAll("GET /healthz HTTP/1.1\r\n\r\n").ok());
  char buf[256] = {0};
  auto got = http->ReadSome(buf, sizeof(buf), 5000);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(std::string(buf, *got).find("503"), std::string::npos);
  // Freeing a slot restores service.
  ASSERT_TRUE(first.Goodbye().ok());
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 1; }));
  Client fourth = MustConnect();
  ASSERT_TRUE(fourth.Goodbye().ok());
  ASSERT_TRUE(second.Goodbye().ok());
}

TEST_F(ServerTest, AuthTokenGatesBothProtocols) {
  ServerConfig config;
  config.auth_token = "hunter2";
  StartServer(config);
  auto anonymous = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(anonymous.ok());

  ClientOptions options;
  options.auth_token = "hunter2";
  Client authed = MustConnect(options);
  auto result = authed.Query(Lang::kSql, "SELECT count(*) AS n FROM big");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(authed.Goodbye().ok());

  auto http = Socket::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(http.ok());
  std::string body = "SELECT 1";
  ASSERT_TRUE(http->WriteAll("POST /query HTTP/1.1\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body)
                  .ok());
  char buf[512] = {0};
  auto got = http->ReadSome(buf, sizeof(buf), 5000);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(std::string(buf, *got).find("401"), std::string::npos);
}

// ---------------------------------------------------------------------------
// sys.sessions & metrics
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SysSessionsIsQueryableOverTheWire) {
  StartServer();
  Client client = MustConnect();
  auto sessions =
      client.Query(Lang::kSql,
                   "SELECT id, protocol, state FROM sys.sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  // At minimum the asking session itself, in state executing/streaming.
  bool found_self = false;
  for (size_t r = 0; r < sessions->num_rows(); ++r) {
    if (sessions->Get(r, 0).AsInt64() ==
        static_cast<int64_t>(client.session_id())) {
      found_self = true;
      EXPECT_EQ(sessions->Get(r, 1).AsString(), "binary");
    }
  }
  EXPECT_TRUE(found_self);
  ASSERT_TRUE(client.Goodbye().ok());

  std::string metrics = veo_.MetricsText();
  EXPECT_NE(metrics.find("teleios_server_connections_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("teleios_server_frames_total"), std::string::npos);
}

TEST_F(ServerTest, ReplyIsOneWritePerChunk) {
  MakeBigTable("five", 5);
  ServerConfig config;
  config.chunk_rows = 2;
  // Only the server's connections go through the counting transport: it
  // listens on it, and the client connects once the scope is gone.
  FaultInjectingTransport counting;
  {
    ScopedTransport scope(&counting);
    StartServer(config);
  }
  Client client = MustConnect();
  // The server's ops for one statement: the read that brought the QUERY
  // frame, then its writes.
  auto writes_for = [&](const std::string& sql) -> uint64_t {
    const uint64_t before = counting.ops();
    auto result = client.Query(Lang::kSql, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return counting.ops() - before - 1;
  };
  EXPECT_EQ(writes_for("SELECT x FROM five WHERE x > 9"), 1u);  // empty
  EXPECT_EQ(writes_for("SELECT x FROM five WHERE x < 2"), 1u);  // one chunk
  EXPECT_EQ(writes_for("SELECT x FROM five"), 3u);  // three chunks
  EXPECT_EQ(client.last_chunks(), 3u);
  // An engine error is one write too.
  const uint64_t before_error = counting.ops();
  auto error = client.Query(Lang::kSql, "SELECT nope FROM five");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(counting.ops() - before_error - 1, 1u);
  EXPECT_TRUE(client.Goodbye().ok());
  // The server's listener and connections use `counting`: stop it first.
  EXPECT_TRUE(server_->Shutdown().ok());
  server_.reset();
}

TEST_F(ServerTest, PipelinedQueriesInOneWriteAreBothAnswered) {
  StartServer();
  Client client = MustConnect();
  std::string both;
  AppendFrame(&both, Opcode::kQuery,
              EncodeQuery(Lang::kSql, "SELECT count(*) AS n FROM big", 0));
  AppendFrame(&both, Opcode::kQuery,
              EncodeQuery(Lang::kSql, "SELECT x FROM big WHERE x < 3", 0));
  ASSERT_TRUE(client.SendRaw(both).ok());
  auto count = client.ReadResult();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->Get(0, 0).AsInt64(), 4096);
  auto rows = client.ReadResult();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 3u);
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Goodbye().ok());
}

TEST_F(ServerTest, HttpRequestInOnePacketLosesNoBytes) {
  StartServer();
  // Head and body in one write: the preamble sniff reads all of it, and
  // the HTTP facade must take the rest from the same buffer.
  const std::string body = "SELECT count(*) AS n FROM big";
  const std::string request = "POST /query?lang=sql HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  auto sock = Socket::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  ASSERT_TRUE(sock->WriteAll(request).ok());
  std::string response;
  char buf[4096];
  for (;;) {
    auto got = sock->ReadSome(buf, sizeof(buf), 5000);
    if (!got.ok() || *got == 0) break;
    response.append(buf, *got);
  }
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"rows\":[[4096]]"), std::string::npos) << response;
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
}

TEST_F(ServerTest, OversizedHttpHeadIsRefusedInFewReads) {
  ServerConfig config;
  config.max_http_bytes = 128u << 10;
  // Only the server's connections go through the counting transport.
  FaultInjectingTransport counting;
  {
    ScopedTransport scope(&counting);
    StartServer(config);
  }
  // A head that never ends: the server must reach max_http_bytes in reads
  // of tens of KiB, not one byte per read once its buffer is full.
  const std::string head = "GET /" + std::string(320u << 10, 'a');
  auto sock = Socket::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Status sent = sock->WriteAll(head, 5000);
  (void)sent;  // the server may hang up before taking it all
  std::string response;
  char buf[4096];
  for (;;) {
    auto got = sock->ReadSome(buf, sizeof(buf), 5000);
    if (!got.ok() || *got == 0) break;
    response.append(buf, *got);
  }
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
  // The accept, the reads and the one write of the 413: a byte per read
  // past the first 64 KiB would be tens of thousands of ops.
  EXPECT_LT(counting.ops(), 100u);
  // The server's listener and connections use `counting`: stop it first.
  EXPECT_TRUE(server_->Shutdown().ok());
  server_.reset();
}

// ---------------------------------------------------------------------------
// HTTP facade
// ---------------------------------------------------------------------------

TEST_F(ServerTest, HttpFacadeServesQueryHealthAndMetrics) {
  StartServer();
  auto fetch = [&](const std::string& request) {
    auto sock = Socket::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(sock.ok());
    EXPECT_TRUE(sock->WriteAll(request).ok());
    std::string response;
    char buf[4096];
    for (;;) {
      auto got = sock->ReadSome(buf, sizeof(buf), 5000);
      if (!got.ok() || *got == 0) break;
      response.append(buf, *got);
    }
    return response;
  };

  EXPECT_NE(fetch("GET /healthz HTTP/1.1\r\n\r\n").find("ok"),
            std::string::npos);
  EXPECT_NE(fetch("GET /metrics HTTP/1.1\r\n\r\n")
                .find("teleios_server_sessions"),
            std::string::npos);

  std::string body = "SELECT count(*) AS n FROM big";
  std::string response =
      fetch("POST /query?lang=sql HTTP/1.1\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"rows\":[[4096]]"), std::string::npos);

  // Parse errors map to 400, unknown routes to 404.
  std::string bad_body = "SELECT FROM";
  EXPECT_NE(fetch("POST /query HTTP/1.1\r\nContent-Length: " +
                  std::to_string(bad_body.size()) + "\r\n\r\n" + bad_body)
                .find("400"),
            std::string::npos);
  EXPECT_NE(fetch("GET /nope HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_TRUE(Eventually([&] { return server_->sessions().live() == 0; }));
}

// ---------------------------------------------------------------------------
// graceful drain
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ShutdownDrainsInFlightStatements) {
  StartServer();
  Client client = MustConnect();
  std::atomic<bool> done{false};
  Result<storage::Table> outcome = Status::Internal("never ran");
  std::thread runner([&] {
    outcome = client.Query(Lang::kSql, "SELECT x FROM big WHERE x % 3 = 0");
    done = true;
  });
  // Wait for the statement to be in flight, so the drain below actually
  // has something to let finish.
  ASSERT_TRUE(Eventually([&] {
    for (const SessionStats& s : server_->sessions().Snapshot()) {
      if (s.id == client.session_id() && s.queries_run >= 1) return true;
    }
    return false;
  }));
  // Shutdown must let the in-flight statement finish streaming (the
  // result is small and fast: well inside the drain window).
  ASSERT_TRUE(server_->Shutdown().ok());
  runner.join();
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->num_rows(), 4096u / 3 + 1);
  // After shutdown the port no longer accepts.
  auto refused = Client::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(refused.ok());
  server_.reset();
}

TEST_F(ServerTest, ShutdownOfDurableObservatoryCheckpoints) {
  fs::path wal_dir = dir_ / "durable";
  VirtualEarthObservatory durable;
  ASSERT_TRUE(durable.Open(wal_dir.string()).ok());
  TeleiosServer server(&durable, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto inserted = client->Query(
      Lang::kStSparql,
      "INSERT DATA { <http://ex.org/a> <http://ex.org/b> <http://ex.org/c> }");
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  (void)client->Goodbye();

  const uint64_t checkpoints_before = durable.durability_stats().checkpoints;
  ASSERT_TRUE(server.Shutdown().ok());
  // The SIGTERM contract: shutting down leaves a fresh checkpoint, so a
  // restart replays no WAL tail.
  EXPECT_EQ(durable.durability_stats().checkpoints, checkpoints_before + 1);
}

}  // namespace
}  // namespace teleios::server
