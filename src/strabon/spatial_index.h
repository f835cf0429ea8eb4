#ifndef TELEIOS_STRABON_SPATIAL_INDEX_H_
#define TELEIOS_STRABON_SPATIAL_INDEX_H_

#include <string>
#include <vector>

#include "geo/rtree.h"
#include "rdf/triple_store.h"
#include "strabon/sparql_algebra.h"
#include "strabon/spatial_functions.h"

namespace teleios::strabon {

/// The R-tree over a store's geometry literals (strdf:WKT, the literals
/// GeometryCache accepts), keyed by dictionary id. The dictionary only
/// grows, so the index only grows with it: no write invalidates an entry
/// (a literal no triple uses any more is a candidate that matches
/// nothing).
class SpatialIndex {
 public:
  /// Indexes the literals interned since the last refresh: a bulk load
  /// while the tree is empty, R-tree inserts after that.
  void Refresh(const rdf::TripleStore& store, GeometryCache* cache);

  /// Term ids of the indexed geometries whose envelopes meet `box`,
  /// ascending.
  std::vector<rdf::TermId> Query(const geo::Envelope& box) const;

  /// The union of the indexed envelopes (the root's envelope).
  const geo::Envelope& extent() const { return extent_; }
  size_t size() const { return rtree_.size(); }

 private:
  geo::RTree rtree_;
  geo::Envelope extent_ = geo::Envelope::Empty();
  rdf::TermId scanned_ = 0;  // dictionary ids below this are indexed
};

/// What a FILTER tells the R-tree: every binding of `var` that can pass it
/// is a geometry whose envelope meets `Around(probe)`. The probe is a
/// constant's envelope, or, for a join, the envelope of the geometry bound
/// to `partner`.
struct SpatialRestriction {
  std::string var;
  std::string partner;  // empty: `probe` is the constant's envelope
  geo::Envelope probe;
  double distance = 0;    // the bound of a distance FILTER
  bool geodesic = false;  // `distance` is in metres

  /// `probe` grown by the search margin (DESIGN.md §4f); `indexed` is the
  /// index extent.
  geo::Envelope Around(const geo::Envelope& probe,
                       const geo::Envelope& indexed) const;
};

/// The restrictions a FILTER implies: one for `rel(?v, C)` or
/// `dist(?v, C) < d`, one per variable for `rel(?a, ?b)` or
/// `dist(?a, ?b) < d`, none otherwise. `rel` is any strdf:/geof: relation
/// but disjoint; `dist` is distance or geodesicDistance, compared by `<` or
/// `<=` with a numeric literal.
std::vector<SpatialRestriction> RestrictionsOf(const SparqlExprPtr& filter,
                                               GeometryCache* cache);

/// True when some FILTER in `group` or its subgroups implies a restriction.
bool HasSpatialRestriction(const GroupPattern& group, GeometryCache* cache);

}  // namespace teleios::strabon

#endif  // TELEIOS_STRABON_SPATIAL_INDEX_H_
