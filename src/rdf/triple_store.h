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

/// Dictionary-encoded triple store with SPO/POS/OSP sorted permutations
/// — the Strabon storage scheme over a column store. Each permutation is
/// the whole triple set, sorted in its own order and duplicate-free.
/// Adds wait in a pending buffer; the next read merges them into every
/// permutation in one linear pass (O(n + k log k) for k adds), and
/// deletions are one sorted set-difference per permutation, so no write
/// re-sorts the store.
class TripleStore {
 public:
  TermDictionary& dict() { return dict_; }
  const TermDictionary& dict() const { return dict_; }

  /// Interns the terms and adds the triple (a triple already present is
  /// not added again).
  void Add(const Term& s, const Term& p, const Term& o);
  void AddEncoded(Triple t);

  /// Removes all triples matching the pattern; returns the count.
  size_t Remove(const TriplePattern& pattern);
  /// Removes every triple of `batch` that is present; returns how many
  /// were (a triple listed twice counts once).
  size_t Erase(std::vector<Triple> batch);

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

  /// Distinct triples stored.
  size_t size() const;

  size_t MemoryUsage() const;

 private:
  /// Merges the pending adds that are new into the permutations; returns
  /// how many there were.
  size_t FoldPending() const;
  /// FoldPending under an "rdf.merge" span, when anything is pending.
  void Sync() const;

  TermDictionary dict_;
  // The permutations, and the adds not yet merged into them. Mutable:
  // a read merges the pending adds.
  mutable std::vector<Triple> spo_;
  mutable std::vector<Triple> pos_;
  mutable std::vector<Triple> osp_;
  mutable std::vector<Triple> pending_;
};

}  // namespace teleios::rdf

#endif  // TELEIOS_RDF_TRIPLE_STORE_H_
