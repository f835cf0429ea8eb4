#include "rdf/triple_store.h"

#include <algorithm>
#include <array>
#include <limits>

namespace teleios::rdf {

namespace {

/// A triple's positions in one permutation's order.
using Key = std::array<TermId, 3>;
Key SpoKey(const Triple& t) { return {t.s, t.p, t.o}; }
Key PosKey(const Triple& t) { return {t.p, t.o, t.s}; }
Key OspKey(const Triple& t) { return {t.o, t.s, t.p}; }

bool Less(const Key& a, const Key& b) {
  if (a[0] != b[0]) return a[0] < b[0];
  if (a[1] != b[1]) return a[1] < b[1];
  return a[2] < b[2];
}

/// Orders permutation entries (indices into the triple vector) by key.
template <Key (*KeyOf)(const Triple&)>
void SortBy(const std::vector<Triple>& triples, std::vector<uint32_t>* perm) {
  std::sort(perm->begin(), perm->end(), [&](uint32_t a, uint32_t b) {
    return Less(KeyOf(triples[a]), KeyOf(triples[b]));
  });
}

/// The triple a permutation entry stands for: itself in triples_ (SPO),
/// or the triple at its index (POS, OSP).
const Triple& Entry(const std::vector<Triple>&, const Triple& t) { return t; }
const Triple& Entry(const std::vector<Triple>& triples, uint32_t index) {
  return triples[index];
}

/// Appends the triples in [first, last) whose keys lie in
/// [KeyOf(lo), KeyOf(hi)]: a binary search to the first, then a walk to
/// the last.
template <Key (*KeyOf)(const Triple&), typename It>
void KeyRange(const std::vector<Triple>& triples, It first, It last,
              const Triple& lo, const Triple& hi, std::vector<Triple>* out) {
  const Key from = KeyOf(lo);
  const Key to = KeyOf(hi);
  auto key = [&](const auto& entry) { return KeyOf(Entry(triples, entry)); };
  for (It it = std::partition_point(
           first, last, [&](const auto& e) { return Less(key(e), from); });
       it != last && !Less(to, key(*it)); ++it) {
    out->push_back(Entry(triples, *it));
  }
}

}  // namespace

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded({dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(Triple t) {
  // Duplicate check via the SPO index when valid, else linear for small
  // stores / rebuild later. To keep Add O(log n) amortized we accept
  // duplicates here and deduplicate on index build.
  triples_.push_back(t);
  indexes_valid_ = false;
}

void TripleStore::EnsureIndexes() const {
  if (indexes_valid_) return;
  // Deduplicate (stable first occurrence).
  {
    std::vector<Triple> sorted = triples_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Triple& a, const Triple& b) {
                return Less(SpoKey(a), SpoKey(b));
              });
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    const_cast<TripleStore*>(this)->triples_ = std::move(sorted);
  }
  size_t n = triples_.size();
  pos_.resize(n);
  osp_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    pos_[i] = osp_[i] = static_cast<uint32_t>(i);
  }
  SortBy<PosKey>(triples_, &pos_);
  SortBy<OspKey>(triples_, &osp_);
  indexes_valid_ = true;
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pat) const {
  std::vector<Triple> out;
  Match(pat, &out);
  return out;
}

void TripleStore::Match(const TriplePattern& pat,
                        std::vector<Triple>* out) const {
  EnsureIndexes();
  // Unbound positions span every id, so the matches are the triples
  // between `lo` and `hi`. In the permutation that leads with the bound
  // positions they form one contiguous range; triples_ itself is SPO.
  constexpr TermId kMin = std::numeric_limits<TermId>::min();
  constexpr TermId kMax = std::numeric_limits<TermId>::max();
  const Triple lo{pat.s.value_or(kMin), pat.p.value_or(kMin),
                  pat.o.value_or(kMin)};
  const Triple hi{pat.s.value_or(kMax), pat.p.value_or(kMax),
                  pat.o.value_or(kMax)};
  if (pat.s && (pat.p || !pat.o)) {
    KeyRange<SpoKey>(triples_, triples_.begin(), triples_.end(), lo, hi, out);
  } else if (pat.p) {
    KeyRange<PosKey>(triples_, pos_.begin(), pos_.end(), lo, hi, out);
  } else if (pat.o) {
    KeyRange<OspKey>(triples_, osp_.begin(), osp_.end(), lo, hi, out);
  } else {
    out->insert(out->end(), triples_.begin(), triples_.end());
  }
}

std::vector<Triple> TripleStore::Match(const std::optional<Term>& s,
                                       const std::optional<Term>& p,
                                       const std::optional<Term>& o) const {
  TriplePattern pat;
  if (s) {
    TermId id = dict_.Lookup(*s);
    if (id == kNoTerm) return {};
    pat.s = id;
  }
  if (p) {
    TermId id = dict_.Lookup(*p);
    if (id == kNoTerm) return {};
    pat.p = id;
  }
  if (o) {
    TermId id = dict_.Lookup(*o);
    if (id == kNoTerm) return {};
    pat.o = id;
  }
  return Match(pat);
}

size_t TripleStore::Remove(const TriplePattern& pat) {
  auto matches = [&](const Triple& t) {
    return (!pat.s || *pat.s == t.s) && (!pat.p || *pat.p == t.p) &&
           (!pat.o || *pat.o == t.o);
  };
  size_t before = triples_.size();
  triples_.erase(std::remove_if(triples_.begin(), triples_.end(), matches),
                 triples_.end());
  indexes_valid_ = false;
  return before - triples_.size();
}

size_t TripleStore::MemoryUsage() const {
  return dict_.MemoryUsage() + triples_.capacity() * sizeof(Triple) +
         (pos_.capacity() + osp_.capacity()) * sizeof(uint32_t);
}

}  // namespace teleios::rdf
