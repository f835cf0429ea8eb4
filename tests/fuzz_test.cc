// Parser robustness: every front end (SQL, SciQL, SPARQL, WKT, Turtle,
// VEC) must reject arbitrary garbage and mutated valid inputs with a
// clean error Status — never crash, hang, or accept nonsense silently.
// Deterministic pseudo-random fuzzing (seeded xorshift), so failures
// reproduce.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/observatory.h"
#include "geo/wkt.h"
#include "io/filesystem.h"
#include "rdf/turtle.h"
#include "relational/sql_parser.h"
#include "sciql/sciql_parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket.h"
#include "storage/persistence.h"
#include "strabon/sparql_parser.h"
#include "vault/formats.h"

namespace teleios {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }

 private:
  uint64_t state_;
};

/// Random printable-ish garbage (includes quotes, braces, unicode-ish
/// bytes).
std::string Garbage(Rng* rng, size_t length) {
  static const char kAlphabet[] =
      "abcXYZ0189 \t\n(){}[]<>\"'`?$#@:;,.*/+-=%^&|\\~_";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->Next() % (sizeof(kAlphabet) - 1)];
  }
  return out;
}

/// Mutates a valid input: deletes, duplicates or swaps random bytes.
std::string Mutate(const std::string& input, Rng* rng, int edits) {
  std::string out = input;
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->Next() % out.size();
    switch (rng->Next() % 3) {
      case 0:
        out.erase(pos, 1);
        break;
      case 1:
        out.insert(pos, 1, out[pos]);
        break;
      default:
        out[pos] = static_cast<char>('!' + rng->Next() % 90);
    }
  }
  return out;
}

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, SqlParserNeverCrashes) {
  Rng rng(GetParam());
  const std::string valid =
      "SELECT station, avg(temp) AS t FROM obs WHERE temp > 300 AND "
      "station LIKE 'a%' GROUP BY station ORDER BY t DESC LIMIT 5";
  for (int i = 0; i < 200; ++i) {
    (void)relational::ParseSql(Garbage(&rng, 1 + rng.Next() % 80));
    (void)relational::ParseSql(Mutate(valid, &rng, 1 + rng.Next() % 6));
  }
  // A pristine statement still parses (the fuzz loop must not poison
  // global state).
  EXPECT_TRUE(relational::ParseSql(valid).ok());
}

TEST_P(FuzzSweep, SciQlParserNeverCrashes) {
  Rng rng(GetParam() * 31 + 7);
  const std::string valid =
      "UPDATE img[0:10, 20:30] SET v = v * 2 + y WHERE v > 5 and x < 9";
  for (int i = 0; i < 200; ++i) {
    (void)sciql::ParseSciQl(Garbage(&rng, 1 + rng.Next() % 80));
    (void)sciql::ParseSciQl(Mutate(valid, &rng, 1 + rng.Next() % 6));
  }
  EXPECT_TRUE(sciql::ParseSciQl(valid).ok());
}

TEST_P(FuzzSweep, SparqlParserNeverCrashes) {
  Rng rng(GetParam() * 97 + 3);
  const std::string valid =
      "SELECT ?h (count(*) AS ?n) WHERE { ?h a noa:Hotspot ; "
      "noa:hasGeometry ?g . FILTER(strdf:intersects(?g, \"POINT (1 "
      "2)\"^^strdf:WKT)) } GROUP BY ?h ORDER BY DESC(?n) LIMIT 3";
  for (int i = 0; i < 200; ++i) {
    (void)strabon::ParseSparql(Garbage(&rng, 1 + rng.Next() % 100));
    (void)strabon::ParseSparql(Mutate(valid, &rng, 1 + rng.Next() % 6));
  }
  EXPECT_TRUE(strabon::ParseSparql(valid).ok());
}

TEST_P(FuzzSweep, WktParserNeverCrashes) {
  Rng rng(GetParam() * 13 + 11);
  const std::string valid =
      "MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 1 2, 2 2, 2 1, 1 "
      "1)), ((9 9, 10 9, 10 10, 9 10, 9 9)))";
  for (int i = 0; i < 300; ++i) {
    (void)geo::ParseWkt(Garbage(&rng, 1 + rng.Next() % 60));
    (void)geo::ParseWkt(Mutate(valid, &rng, 1 + rng.Next() % 5));
  }
  EXPECT_TRUE(geo::ParseWkt(valid).ok());
}

TEST_P(FuzzSweep, TurtleParserNeverCrashes) {
  Rng rng(GetParam() * 131 + 17);
  const std::string valid =
      "@prefix ex: <http://e/> . ex:a a ex:T ; ex:p \"x\\\"y\"@en , 4.5 ; "
      "ex:q <http://z/> .";
  for (int i = 0; i < 200; ++i) {
    rdf::TripleStore store;
    (void)rdf::ParseTurtle(Garbage(&rng, 1 + rng.Next() % 90), &store);
    rdf::TripleStore store2;
    (void)rdf::ParseTurtle(Mutate(valid, &rng, 1 + rng.Next() % 6),
                           &store2);
  }
  rdf::TripleStore store;
  EXPECT_TRUE(rdf::ParseTurtle(valid, &store).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---------------------------------------------------------------------------
// Binary-format corruption corpus: every prefix truncation and every
// single-bit flip of a valid TELT image or .ter / .vec file must come
// back as a clean ParseError / DataLoss / IoError — never a crash or a
// silently accepted parse. Exhaustive, not sampled, so the artifacts are
// tiny.

class CorruptionCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fuzz_corpus_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string ReadAllBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteAllBytes(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  /// Runs `parse` against every prefix truncation and every single-bit
  /// flip of `image`, requiring a clean rejection each time.
  /// `tail_slack` exempts the last N bytes from the truncation sweep —
  /// text formats tolerate a missing final newline, which loses no data.
  template <typename ParseFn>
  void Sweep(const std::string& image, const std::string& victim,
             ParseFn parse, size_t tail_slack = 0) {
    for (size_t len = 0; len + tail_slack < image.size(); ++len) {
      WriteAllBytes(victim, image.substr(0, len));
      Status st = parse(victim);
      ASSERT_FALSE(st.ok()) << "truncation to " << len
                            << " bytes was accepted";
      EXPECT_TRUE(st.code() == StatusCode::kParseError ||
                  st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kIoError)
          << "truncation to " << len << ": " << st.ToString();
    }
    for (size_t i = 0; i < image.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = image;
        mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
        WriteAllBytes(victim, mutated);
        Status st = parse(victim);
        ASSERT_FALSE(st.ok())
            << "bit " << bit << " of byte " << i << " flipped unnoticed";
        EXPECT_TRUE(st.code() == StatusCode::kParseError ||
                    st.code() == StatusCode::kDataLoss ||
                    st.code() == StatusCode::kIoError)
            << "flip at byte " << i << " bit " << bit << ": "
            << st.ToString();
      }
    }
    // The pristine image still parses afterwards.
    WriteAllBytes(victim, image);
    EXPECT_TRUE(parse(victim).ok());
  }

  std::filesystem::path dir_;
};

TEST_F(CorruptionCorpus, TeltRejectsEveryTruncationAndBitFlip) {
  storage::Table t{storage::Schema({{"id", storage::ColumnType::kInt64},
                                    {"tag", storage::ColumnType::kString}})};
  for (int64_t i = 0; i < 3; ++i) {
    t.column(0).AppendInt64(i);
    t.column(1).AppendString(i == 1 ? "" : "r" + std::to_string(i));
  }
  std::string image = storage::EncodeTelt(t);
  ASSERT_GT(image.size(), 16u);
  Sweep(image, Path("victim.telt"), [](const std::string& p) {
    return storage::DecodeTelt(ReadAllBytes(p)).status();
  });
}

TEST_F(CorruptionCorpus, TerRejectsEveryTruncationAndBitFlip) {
  vault::TerRaster r;
  r.name = "tiny";
  r.satellite = "Meteosat-9";
  r.sensor = "SEVIRI";
  r.width = 4;
  r.height = 3;
  r.acquisition_time = 1187997600;
  r.transform = {21.0, 38.5, 0.01, -0.01, 0, 0};
  r.band_names = {"IR039"};
  r.bands = {std::vector<double>(12, 305.5)};
  ASSERT_TRUE(vault::WriteTer(r, Path("seed.ter")).ok());
  std::string image = ReadAllBytes(Path("seed.ter"));
  ASSERT_GT(image.size(), 16u);
  Sweep(image, Path("victim.ter"), [](const std::string& p) {
    return vault::ReadTer(p).status();
  });
}

TEST_F(CorruptionCorpus, VecRejectsEveryTruncationAndBitFlip) {
  vault::VecFile vec;
  vec.name = "hotspots";
  vault::VecFeature a;
  a.id = 1;
  a.attributes = {{"conf", "0.9"}};
  auto ga = geo::ParseWkt("POINT (21.5 38.2)");
  ASSERT_TRUE(ga.ok());
  a.geometry = *ga;
  vault::VecFeature b;
  b.id = 2;
  b.attributes = {{"conf", "0.4"}, {"note", "edge\tcase"}};
  auto gb = geo::ParseWkt("POINT (22.0 38.0)");
  ASSERT_TRUE(gb.ok());
  b.geometry = *gb;
  vec.features = {a, b};
  ASSERT_TRUE(vault::WriteVec(vec, Path("seed.vec")).ok());
  std::string image = ReadAllBytes(Path("seed.vec"));
  ASSERT_GT(image.size(), 16u);
  Sweep(
      image, Path("victim.vec"),
      [](const std::string& p) { return vault::ReadVec(p).status(); },
      /*tail_slack=*/1);
}

// Forward-compat guards: artifacts stamped with a format version newer
// than this binary must be rejected as kDataLoss with an explicit
// "newer" message — not misparsed, not silently truncated.
class ForwardCompat : public CorruptionCorpus {};

TEST_F(ForwardCompat, TeltNewerVersionIsDataLossNotParseError) {
  storage::Table t{storage::Schema({{"id", storage::ColumnType::kInt64}})};
  t.column(0).AppendInt64(7);
  std::string image = storage::EncodeTelt(t);
  // Layout: "TELT" magic then little-endian u32 version.
  ASSERT_GE(image.size(), 8u);
  image[4] = 99;
  auto r = storage::DecodeTelt(image);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("newer"), std::string::npos)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Wire-protocol malformation corpus: a TELEIOS server fed truncated
// length prefixes, hostile lengths, corrupted CRCs, unknown opcodes,
// mid-frame disconnects, and seeded garbage must shed every one as a
// protocol error — never crash, never allocate a hostile length, and
// never leak a session. After every abuse the same server still serves
// a well-behaved client.

class WireProtocolFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    server::ServerConfig config;
    config.port = 0;
    server_ = std::make_unique<server::TeleiosServer>(&veo_, config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    // The abused server must still be a working server.
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto result = client->Query(server::Lang::kSql, "SELECT count(*) AS n FROM sys.sessions");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (void)client->Goodbye();
    // ...and every malformed connection fully unwound.
    EXPECT_TRUE(NoLiveSessions());
    ASSERT_TRUE(server_->Shutdown().ok());
  }

  bool NoLiveSessions() {
    for (int i = 0; i < 500; ++i) {
      if (server_->sessions().live() == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return server_->sessions().live() == 0;
  }

  server::Socket MustConnectRaw() {
    auto sock = server::Socket::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(sock.ok());
    return std::move(sock).value();
  }

  /// Sends raw bytes on a fresh connection, then closes without reading.
  void SendAndDrop(const std::string& bytes) {
    server::Socket sock = MustConnectRaw();
    (void)sock.WriteAll(bytes);
  }

  static std::string Magic() { return std::string(server::kMagic, 4); }

  /// A well-formed post-magic HELLO frame (anonymous, no deadline).
  static std::string HelloFrame() {
    std::string frame;
    server::AppendFrame(
        &frame, server::Opcode::kHello,
        server::EncodeHello(server::kProtocolVersion, "", 0));
    return frame;
  }

  core::VirtualEarthObservatory veo_;
  std::unique_ptr<server::TeleiosServer> server_;
};

TEST_F(WireProtocolFuzz, TruncatedLengthPrefixesNeverCrash) {
  const std::string hello = Magic() + HelloFrame();
  // Every prefix of the handshake, from zero bytes (bare connect) up to
  // one byte short of complete, then disconnect.
  for (size_t len = 0; len < hello.size(); ++len) {
    SendAndDrop(hello.substr(0, len));
  }
  EXPECT_TRUE(NoLiveSessions());
}

TEST_F(WireProtocolFuzz, OversizedLengthIsRefusedBeforeAllocation) {
  // A header declaring a 4-GiB body: the length guard must trip off the
  // 8 header bytes alone (kMaxFrameBytes), not attempt the read.
  std::string wire = Magic() + HelloFrame();
  std::string header(8, '\0');
  header[0] = '\xff';
  header[1] = '\xff';
  header[2] = '\xff';
  header[3] = '\xff';
  server::Socket sock = MustConnectRaw();
  ASSERT_TRUE(sock.WriteAll(wire + header).ok());
  // The server answers with a framed ERROR (best effort) and drops.
  std::string drained;
  char buf[512];
  for (;;) {
    auto got = sock.ReadSome(buf, sizeof(buf), 5000);
    if (!got.ok() || *got == 0) break;
    drained.append(buf, *got);
  }
  EXPECT_TRUE(NoLiveSessions());

  // Zero-length frames are equally malformed.
  std::string zero(8, '\0');
  SendAndDrop(wire + zero);
  EXPECT_TRUE(NoLiveSessions());
}

TEST_F(WireProtocolFuzz, CorruptedCrcIsDetectedAndDropped) {
  std::string query_frame;
  server::AppendFrame(
      &query_frame, server::Opcode::kQuery,
      server::EncodeQuery(server::Lang::kSql, "SELECT count(*) AS n FROM sys.sessions", 0));
  // Flip each bit of the CRC field and of the first payload byte; every
  // mutant must die at the CRC check, not reach the SQL engine.
  for (size_t byte : {size_t{4}, size_t{9}}) {
    for (int bit = 0; bit < 8; ++bit) {
      auto client = server::Client::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      std::string mutant = query_frame;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      ASSERT_TRUE(client->SendRaw(mutant).ok());
      // The server either frames a kDataLoss ERROR before dropping or
      // just drops; it never returns rows for a torn frame.
      auto frame = client->ReadFrame();
      if (frame.ok()) {
        EXPECT_EQ(frame->opcode, server::Opcode::kError);
      }
    }
  }
  EXPECT_TRUE(NoLiveSessions());
}

TEST_F(WireProtocolFuzz, UnknownOpcodeIsAProtocolError) {
  for (uint8_t opcode : {uint8_t{0}, uint8_t{42}, uint8_t{200},
                         uint8_t{255}}) {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client->SendFrame(static_cast<server::Opcode>(opcode), "junk").ok());
    auto frame = client->ReadFrame();
    if (frame.ok()) {
      EXPECT_EQ(frame->opcode, server::Opcode::kError);
    }
  }
  EXPECT_TRUE(NoLiveSessions());
}

TEST_F(WireProtocolFuzz, MidFrameDisconnectLeaksNothing) {
  // Declare a 100-byte body, deliver 10, vanish: the server sees a torn
  // frame (kDataLoss), not a hung read or a crash.
  std::string torn;
  server::AppendFrame(&torn, server::Opcode::kQuery,
                      std::string(99, 'q'));  // body = opcode + 99
  SendAndDrop(Magic() + HelloFrame() + torn.substr(0, 8 + 10));
  EXPECT_TRUE(NoLiveSessions());

  // Same torn tail on an established, authenticated session.
  auto client = server::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRaw(torn.substr(0, 8 + 10)).ok());
  client->connection().Close();
  EXPECT_TRUE(NoLiveSessions());
}

TEST_F(WireProtocolFuzz, SeededGarbageStreamsNeverCrash) {
  Rng rng(0xd1ce);
  for (int i = 0; i < 32; ++i) {
    std::string noise = Garbage(&rng, 1 + rng.Next() % 200);
    // Half the probes speak "binary" (magic preamble + noise), half hit
    // the HTTP sniffer with bare noise.
    SendAndDrop(i % 2 == 0 ? Magic() + noise : noise);
  }
  // Bit-flip sweep over a pristine handshake+query image (sampled: every
  // third byte) — mutants may break the magic, the frame, or the SQL,
  // and each layer must reject cleanly.
  std::string image = Magic() + HelloFrame();
  server::AppendFrame(
      &image, server::Opcode::kQuery,
      server::EncodeQuery(server::Lang::kSql, "SELECT count(*) AS n FROM sys.sessions", 0));
  for (size_t i = 0; i < image.size(); i += 3) {
    std::string mutant = image;
    mutant[i] = static_cast<char>(mutant[i] ^ (1u << (i % 8)));
    SendAndDrop(mutant);
  }
  EXPECT_TRUE(NoLiveSessions());
}

}  // namespace
}  // namespace teleios
