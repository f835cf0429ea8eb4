#ifndef TELEIOS_RDF_TRIPLE_STORE_H_
#define TELEIOS_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace teleios::rdf {

struct Triple {
  TermId s;
  TermId p;
  TermId o;

  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

/// A triple pattern; unset positions are wildcards.
struct TriplePattern {
  std::optional<TermId> s;
  std::optional<TermId> p;
  std::optional<TermId> o;
};

/// Dictionary-encoded triple store with SPO/POS/OSP sorted permutation
/// indexes (built lazily, invalidated on write) — the Strabon storage
/// scheme over a column store.
class TripleStore {
 public:
  TermDictionary& dict() { return dict_; }
  const TermDictionary& dict() const { return dict_; }

  /// Interns the terms and adds the triple (duplicates are kept out).
  void Add(const Term& s, const Term& p, const Term& o);
  void AddEncoded(Triple t);

  /// Removes all triples matching the pattern; returns the count.
  size_t Remove(const TriplePattern& pattern);

  /// All triples matching the pattern: a binary-searched range of the
  /// permutation that leads with the pattern's bound positions, in that
  /// permutation's order.
  std::vector<Triple> Match(const TriplePattern& pattern) const;
  /// The same, appended to `out`, so a caller can reuse one buffer.
  void Match(const TriplePattern& pattern, std::vector<Triple>* out) const;

  /// Convenience: match with Terms (unknown terms match nothing).
  std::vector<Triple> Match(const std::optional<Term>& s,
                            const std::optional<Term>& p,
                            const std::optional<Term>& o) const;

  size_t size() const { return triples_.size(); }
  const std::vector<Triple>& triples() const { return triples_; }

  size_t MemoryUsage() const;

 private:
  void EnsureIndexes() const;

  TermDictionary dict_;
  std::vector<Triple> triples_;

  // Lazily built sorted permutations (indices into triples_, which is
  // kept sorted SPO).
  mutable bool indexes_valid_ = false;
  mutable std::vector<uint32_t> pos_;
  mutable std::vector<uint32_t> osp_;
};

}  // namespace teleios::rdf

#endif  // TELEIOS_RDF_TRIPLE_STORE_H_
