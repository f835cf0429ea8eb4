#ifndef TELEIOS_TESTS_SPARQL_CORPUS_H_
#define TELEIOS_TESTS_SPARQL_CORPUS_H_

// A seeded corpus of small stRDF stores and stSPARQL statements over them,
// rendered to one fingerprint line per statement. The golden file
// tests/golden/sparql_corpus.txt holds the fingerprints an earlier
// evaluator produced; sparql_corpus_test.cc checks that the current one
// answers byte for byte the same. The header uses only the long-standing
// Strabon surface (LoadTurtle, Query, Update, store().Match), so the same
// renderer compiles against an older build of the library to regenerate
// the file:
//
//   #include "sparql_corpus.h"
//   int main() { for (auto& l : teleios::corpus::Fingerprints())
//                  std::cout << l << "\n"; }

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "strabon/strabon.h"

namespace teleios::corpus {

inline constexpr int kStores = 50;
/// How many of Queries() run again once the updates are applied.
inline constexpr size_t kQueriesAfterUpdates = 12;

/// Turtle for store `index`: 10 to 40 triples over eight subjects and four
/// predicates, with IRI, integer, double, dateTime, plain, language-tagged
/// and boolean objects. Plain `rng() % n` keeps the draw identical on every
/// standard library.
inline std::string StoreTurtle(int index) {
  std::mt19937 rng(7919u * static_cast<uint32_t>(index) + 17u);
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n"
         "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n";
  if (index % 2 == 0) ttl << "ex:s0 ex:p0 ex:s1 .\n";  // for the ground ASKs
  const int triples = 10 + (index % 4) * 10;
  for (int t = 0; t < triples; ++t) {
    ttl << "ex:s" << rng() % 8 << " ex:p" << rng() % 4 << " ";
    switch (rng() % 7) {
      case 0:
      case 1:
        ttl << "ex:s" << rng() % 8;
        break;
      case 2:
        ttl << "\"" << static_cast<int>(rng() % 26) - 5
            << "\"^^xsd:integer";
        break;
      case 3:
        ttl << "\"" << rng() % 100 << ".5\"^^xsd:double";
        break;
      case 4:
        ttl << "\"2007-08-2" << rng() % 8 << "T1" << rng() % 10
            << ":00:00\"^^xsd:dateTime";
        break;
      case 5:
        ttl << "\"lit" << rng() % 5 << "\"" << (rng() % 2 ? "@en" : "");
        break;
      default:
        ttl << (rng() % 2 ? "true" : "false");
        break;
    }
    ttl << " .\n";
  }
  return ttl.str();
}

/// Read-only statements, run against every store in order.
inline const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      // Basic graph patterns, repeated variables, ground-only patterns.
      "SELECT * WHERE { ?s ex:p0 ?o }",
      "SELECT ?a ?b ?c WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c }",
      "SELECT ?x WHERE { ?x ex:p2 ?x }",
      "SELECT ?x ?p WHERE { ?x ?p ?x }",
      "SELECT * WHERE { ?s ?p ?o . ?o ?q ?s }",
      "SELECT * WHERE { ex:s0 ex:p0 ex:s1 }",
      "SELECT * WHERE { ex:s1 ?p ?o . ex:s2 ?q ?o }",
      "SELECT * WHERE { ?a ex:nothing ?b . ?c ex:p0 ?d }",
      "SELECT ?a ?d WHERE { ?a ex:p1 ?b . ?c ex:p3 ?d }",
      // FILTERs that error, and bound().
      "SELECT ?s ?o WHERE { ?s ?p ?o FILTER(?o + 1 > 3) }",
      "SELECT ?s ?o WHERE { ?s ?p ?o FILTER(?o * 2 > 4 || ?o = ex:s1) }",
      "SELECT ?s ?o WHERE { ?s ?p ?o FILTER(!(?o < 10) && isLiteral(?o)) }",
      "SELECT ?s ?o WHERE { ?s ex:p0 ?x OPTIONAL { ?x ex:p1 ?o } "
      "FILTER(!bound(?o)) }",
      "SELECT ?s WHERE { ?s ?p ?o FILTER(bound(?nowhere)) }",
      // OPTIONAL, nested, and joined on a variable that may be unbound.
      "SELECT * WHERE { ?s ex:p0 ?a OPTIONAL { ?a ex:p1 ?b "
      "OPTIONAL { ?b ex:p2 ?c } } OPTIONAL { ?s ex:p3 ?b } }",
      "SELECT * WHERE { ?s ex:p0 ?a OPTIONAL { ?a ex:p1 ?b } OPTIONAL { "
      "?s ex:p3 ?c OPTIONAL { ?c ex:p1 ?b } } }",
      "SELECT * WHERE { ?s ex:p1 ?o OPTIONAL { ?x ex:p2 ?y } }",
      "SELECT ?s ?n WHERE { ?s ex:p2 ?o OPTIONAL { ?o ex:p0 ?n "
      "FILTER(isIRI(?n)) } }",
      // UNION branches that bind different variables.
      "SELECT * WHERE { { ?s ex:p0 ?a } UNION { ?s ex:p1 ?b } }",
      "SELECT ?s ?a ?b WHERE { ?s ex:p2 ?z . { ?s ex:p0 ?a } UNION "
      "{ ?z ex:p1 ?b } }",
      "SELECT * WHERE { { ex:s0 ex:p0 ex:s1 } UNION { ex:s1 ex:p0 ex:s2 } }",
      // BIND.
      "SELECT ?s ?v ?w WHERE { ?s ex:p3 ?v BIND(?v * 2 AS ?w) }",
      "SELECT ?s ?w WHERE { ?s ex:p1 ?v BIND(str(?v) AS ?w) "
      "FILTER(strlen(?w) > 20) }",
      "SELECT ?s ?v WHERE { ?s ex:p0 ?v BIND(ex:fixed AS ?v) }",
      // GROUP BY with every aggregate, empty groups, unbound keys.
      "SELECT ?s (count(*) AS ?n) (count(?o) AS ?m) (sum(?o) AS ?sum) "
      "(avg(?o) AS ?avg) (min(?o) AS ?lo) (max(?o) AS ?hi) "
      "WHERE { ?s ?p ?o } GROUP BY ?s",
      "SELECT ?p (count(*) AS ?n) (max(?o) AS ?hi) WHERE { ?s ?p ?o } "
      "GROUP BY ?p ORDER BY DESC(?n) ?p",
      "SELECT (count(*) AS ?n) (sum(?o) AS ?t) (min(?o) AS ?m) "
      "WHERE { ?s ex:nothing ?o }",
      "SELECT ?s (count(*) AS ?n) WHERE { ?s ex:nothing ?o } GROUP BY ?s",
      "SELECT ?b (count(*) AS ?n) (count(?b) AS ?m) WHERE { ?s ex:p0 ?a "
      "OPTIONAL { ?a ex:p1 ?b } } GROUP BY ?b",
      "SELECT ?s ?p (count(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ?p",
      // DISTINCT.
      "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
      "SELECT DISTINCT ?o WHERE { ?s ?p ?o } ORDER BY ?o",
      "SELECT DISTINCT ?a ?b WHERE { ?s ex:p0 ?a OPTIONAL { ?a ex:p1 ?b } }",
      "SELECT DISTINCT * WHERE { ?s ex:p2 ?o }",
      // ORDER BY over mixed terms, ties kept in solution order.
      "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o",
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s",
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?p",
      "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?s)",
      // LIMIT / OFFSET.
      "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o LIMIT 3 OFFSET 2",
      "SELECT ?s WHERE { ?s ?p ?o } LIMIT 4",
      "SELECT ?s WHERE { ?s ?p ?o } OFFSET 30",
      // ASK.
      "ASK { ex:s0 ex:p0 ex:s1 }",
      "ASK { ex:s0 ex:p0 ex:s1 . ex:s1 ex:p0 ex:s0 }",
      "ASK { ?s ex:p3 ?o FILTER(?o > 5) }",
  };
  return queries;
}

/// Updates, run in order against every store after its queries.
inline const std::vector<std::string>& Updates() {
  static const std::vector<std::string> updates = {
      "DELETE { ?s ex:p0 ?o } INSERT { ?o ex:back ?s } "
      "WHERE { ?s ex:p0 ?o FILTER(isIRI(?o)) }",
      "DELETE { ?s ex:p1 ?o } INSERT { ?s ex:was ?b } "
      "WHERE { ?s ex:p1 ?o OPTIONAL { ?o ex:p2 ?b } }",
      "INSERT { ?s ex:twice ?w } WHERE { ?s ex:p3 ?v BIND(?v * 2 AS ?w) }",
      "DELETE WHERE { ?s ex:p2 ?o }",
  };
  return updates;
}

/// FNV-1a, 64 bits.
inline uint64_t Fnv64(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// A query result as text: an ASK's answer, the header, then one
/// tab-separated line per row, an unbound cell as "-"; a failure as its
/// status code.
inline std::string RenderQuery(strabon::Strabon* store,
                               const std::string& query) {
  const std::string text = "PREFIX ex: <http://example.org/> " + query;
  auto table = store->Query(text);
  if (!table.ok()) {
    return std::string("error ") + StatusCodeName(table.status().code());
  }
  std::string out;
  if (query.rfind("ASK", 0) == 0) {
    auto yes = store->Ask(text);
    out += !yes.ok() ? "ask error " : (*yes ? "ask true " : "ask false ");
  }
  for (const auto& f : table->schema().fields()) out += f.name + "\t";
  out += "\n";
  for (size_t r = 0; r < table->num_rows(); ++r) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      Value v = table->Get(r, c);
      out += v.is_null() ? "-" : v.AsString();
      out += "\t";
    }
    out += "\n";
  }
  return out;
}

/// The store's triples as sorted N-Triples lines.
inline std::string RenderStore(const strabon::Strabon& store) {
  const auto& dict = store.store().dict();
  std::vector<std::string> lines;
  for (const rdf::Triple& t : store.store().Match(rdf::TriplePattern{})) {
    lines.push_back(dict.At(t.s).ToNTriples() + " " +
                    dict.At(t.p).ToNTriples() + " " +
                    dict.At(t.o).ToNTriples());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// One line per statement: "store query rows fnv". `render`, when given,
/// receives each statement's full rendering alongside its line.
inline std::vector<std::string> Fingerprints(
    std::vector<std::string>* render = nullptr) {
  std::vector<std::string> lines;
  auto emit = [&](int store, const std::string& id, size_t rows,
                  const std::string& text) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "s%02d %s rows=%zu fnv=%016llx", store,
                  id.c_str(), rows,
                  static_cast<unsigned long long>(Fnv64(text)));
    lines.push_back(buf);
    if (render != nullptr) render->push_back(text);
  };
  for (int i = 0; i < kStores; ++i) {
    strabon::Strabon store;
    if (!store.LoadTurtle(StoreTurtle(i)).ok()) {
      emit(i, "load", 0, "load failed");
      continue;
    }
    auto run_queries = [&](const std::string& phase, size_t count) {
      for (size_t q = 0; q < count; ++q) {
        std::string text = RenderQuery(&store, Queries()[q]);
        size_t rows = static_cast<size_t>(
            std::count(text.begin(), text.end(), '\n'));
        emit(i, phase + std::to_string(q), rows > 0 ? rows - 1 : 0, text);
      }
    };
    run_queries("q", Queries().size());
    for (size_t u = 0; u < Updates().size(); ++u) {
      auto n = store.Update("PREFIX ex: <http://example.org/> " +
                            Updates()[u]);
      std::string text =
          n.ok() ? "affected " + std::to_string(*n) + "\n" + RenderStore(store)
                 : std::string("error ") + StatusCodeName(n.status().code());
      emit(i, "u" + std::to_string(u), store.size(), text);
    }
    run_queries("after-q", kQueriesAfterUpdates);
  }
  return lines;
}

}  // namespace teleios::corpus

#endif  // TELEIOS_TESTS_SPARQL_CORPUS_H_
