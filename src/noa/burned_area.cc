#include "noa/burned_area.h"

#include <set>

#include "eo/product.h"
#include "geo/clip.h"
#include "geo/wkt.h"
#include "strabon/temporal.h"

namespace teleios::noa {

using rdf::Term;

Result<BurnedAreaProduct> MapBurnedArea(strabon::Strabon* strabon,
                                        const std::string& product_id_suffix,
                                        int64_t window_start,
                                        int64_t window_end) {
  if (window_end < window_start) {
    return Status::InvalidArgument("burned-area window ends before start");
  }
  std::string period = "\"[" + strabon::FormatDateTime(window_start) + ", " +
                       strabon::FormatDateTime(window_end) +
                       "]\"^^strdf:period";
  // Hotspots whose valid time falls inside the window, with provenance.
  TELEIOS_ASSIGN_OR_RETURN(
      storage::Table solutions,
      strabon->Select("SELECT ?g ?p WHERE { ?h a noa:Hotspot ; "
                      "noa:hasGeometry ?g ; noa:hasValidTime ?vt ; "
                      "noa:derivedFromProduct ?p . "
                      "FILTER(strdf:during(?vt, " + period + ")) }"));
  BurnedAreaProduct product;
  product.id = "burned-area-" + product_id_suffix;
  product.window_start = window_start;
  product.window_end = window_end;

  std::set<rdf::TermId> sources;
  geo::Geometry merged;
  for (size_t r = 0; r < solutions.num_rows(); ++r) {
    rdf::TermId g_id = strabon::Binding(solutions, "g", r);
    if (g_id == rdf::kNoTerm) continue;
    const Term& term = strabon->store().dict().At(g_id);
    auto g = geo::ParseWkt(term.lexical);
    if (!g.ok() || g->IsEmpty()) continue;  // rejected/empty geometries
    if (merged.IsEmpty()) {
      merged = std::move(*g);
    } else {
      TELEIOS_ASSIGN_OR_RETURN(merged, geo::Union(merged, *g));
    }
    ++product.hotspots_merged;
    rdf::TermId p_id = strabon::Binding(solutions, "p", r);
    if (p_id != rdf::kNoTerm) sources.insert(p_id);
  }
  product.geometry = std::move(merged);
  product.area = product.geometry.Area();

  // Publish.
  std::string ns(eo::kNoaNs);
  Term subject = Term::Iri(ns + "burnedArea/" + product.id);
  strabon->Add(subject, Term::Iri(rdf::kRdfType),
               Term::Iri(ns + "BurnedArea"));
  strabon->Add(subject, Term::Iri(ns + "hasGeometry"),
               Term::WktLiteral(geo::WriteWkt(product.geometry)));
  strabon->Add(subject, Term::Iri(ns + "hasValidTime"),
               strabon::PeriodLiteral(window_start, window_end));
  for (rdf::TermId source : sources) {
    strabon->Add(subject, Term::Iri(ns + "derivedFromProduct"),
                 strabon->store().dict().At(source));
  }
  return product;
}

}  // namespace teleios::noa
