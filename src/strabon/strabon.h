#ifndef TELEIOS_STRABON_STRABON_H_
#define TELEIOS_STRABON_STRABON_H_

#include <string>

#include "common/status.h"
#include "rdf/triple_store.h"
#include "rdf/turtle.h"
#include "storage/table.h"
#include "strabon/sparql_eval.h"
#include "strabon/sparql_parser.h"

namespace teleios::strabon {

/// The semantic geospatial database system of the TELEIOS database tier:
/// an stRDF store queryable and updatable with stSPARQL, with an R-tree
/// over all strdf:WKT literals accelerating spatial FILTER selections and
/// joins.
class Strabon {
 public:
  Strabon() = default;

  rdf::TripleStore& store() { return store_; }
  const rdf::TripleStore& store() const { return store_; }

  /// Loads Turtle text; returns triples added.
  Result<size_t> LoadTurtle(const std::string& text);
  Result<size_t> LoadTurtleFile(const std::string& path);

  /// Adds one triple directly.
  void Add(const rdf::Term& s, const rdf::Term& p, const rdf::Term& o);

  /// Executes a SELECT/ASK, returning the solutions: one BIGINT column of
  /// term ids per projected variable, rdf::kNoTerm where it is unbound.
  Result<storage::Table> Select(const std::string& sparql);

  /// Parses a statement under a `parse` span.
  static Result<SparqlStatement> Parse(const std::string& sparql);

  /// Executes a SELECT/ASK, returning a printable table (ASK yields a
  /// single boolean-ish row).
  Result<storage::Table> Query(const std::string& sparql);
  /// Query over a Parse result, so a caller that parsed to route the
  /// statement does not parse it twice; a parse error or an update
  /// fails here as it would in Query(text).
  Result<storage::Table> Query(const Result<SparqlStatement>& parsed);

  /// Executes ASK.
  Result<bool> Ask(const std::string& sparql);

  /// Executes an update (INSERT DATA / DELETE DATA / DELETE-INSERT-WHERE
  /// / DELETE WHERE); returns triples added + removed.
  Result<size_t> Update(const std::string& sparql);
  /// Update over a Parse result, as Query has it; a parse error or a
  /// query fails here as it would in Update(text).
  Result<size_t> Update(const Result<SparqlStatement>& parsed);

  /// Spatial index control (on by default). Disabling it forces full-scan
  /// spatial filters — the baseline in the E9 benchmark.
  void set_spatial_index_enabled(bool enabled) {
    spatial_index_enabled_ = enabled;
  }
  bool spatial_index_enabled() const { return spatial_index_enabled_; }

  /// Number of geometry literals currently indexed.
  size_t indexed_geometries() const { return index_.size(); }

  size_t size() const { return store_.size(); }

  /// Serializes the store as Turtle with the default prefixes.
  std::string ToTurtle() const;

  /// Writes ToTurtle() to a file.
  Status SaveTurtleFile(const std::string& path) const;

 private:
  /// The solutions of a parsed SELECT/ASK.
  Result<storage::Table> Solutions(const Result<SparqlStatement>& parsed);
  Result<storage::Table> RunQuery(const SparqlQuery& query);
  Result<size_t> RunUpdate(const SparqlUpdate& update);

  /// The spatial index, refreshed, for evaluating `where`; null when the
  /// index is off or no FILTER in `where` can use it.
  const SpatialIndex* IndexFor(const GroupPattern& where);

  rdf::TripleStore store_;
  GeometryCache cache_;
  bool spatial_index_enabled_ = true;
  SpatialIndex index_;
};

}  // namespace teleios::strabon

#endif  // TELEIOS_STRABON_STRABON_H_
