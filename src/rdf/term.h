#ifndef TELEIOS_RDF_TERM_H_
#define TELEIOS_RDF_TERM_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace teleios::rdf {

/// Well-known datatype IRIs.
inline constexpr const char* kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr const char* kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
inline constexpr const char* kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";
inline constexpr const char* kXsdDateTime =
    "http://www.w3.org/2001/XMLSchema#dateTime";
/// stRDF spatial literal datatype (WKT with optional CRS), per the
/// Strabon system the paper builds on.
inline constexpr const char* kStrdfWkt = "http://strdf.di.uoa.gr/ontology#WKT";
/// stRDF temporal period datatype.
inline constexpr const char* kStrdfPeriod =
    "http://strdf.di.uoa.gr/ontology#period";
inline constexpr const char* kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

enum class TermKind { kIri, kBlank, kLiteral };

/// An RDF term: IRI, blank node, or (optionally typed / language-tagged)
/// literal.
struct Term {
  TermKind kind = TermKind::kIri;
  std::string lexical;   // IRI text, blank label, or literal lexical form
  std::string datatype;  // literal datatype IRI; empty = plain string
  std::string lang;      // literal language tag (mutually exclusive)

  static Term Iri(std::string iri);
  static Term Blank(std::string label);
  static Term Literal(std::string value, std::string datatype = "",
                      std::string lang = "");
  static Term IntegerLiteral(int64_t v);
  static Term DoubleLiteral(double v);
  static Term BooleanLiteral(bool v);
  /// WKT geometry literal typed strdf:WKT.
  static Term WktLiteral(std::string wkt);

  bool IsIri() const { return kind == TermKind::kIri; }
  bool IsBlank() const { return kind == TermKind::kBlank; }
  bool IsLiteral() const { return kind == TermKind::kLiteral; }
  bool IsWkt() const { return IsLiteral() && datatype == kStrdfWkt; }
  /// xsd:integer or xsd:double: compared by value, not lexically.
  bool IsNumeric() const {
    return IsLiteral() && (datatype == kXsdInteger || datatype == kXsdDouble);
  }

  /// Canonical N-Triples rendering; doubles as the dictionary key.
  std::string ToNTriples() const;

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && lang == other.lang;
  }
};

/// Escapes a string for an N-Triples literal body.
std::string EscapeNTriplesString(const std::string& s);

}  // namespace teleios::rdf

#endif  // TELEIOS_RDF_TERM_H_
