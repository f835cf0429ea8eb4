#include "rdf/triple_store.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "obs/trace.h"

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

/// One permutation's order.
template <Key (*KeyOf)(const Triple&)>
struct By {
  bool operator()(const Triple& a, const Triple& b) const {
    return Less(KeyOf(a), KeyOf(b));
  }
};

/// Sorts `batch` in SPO order without repeats, keeping the triples that
/// `spo` holds when `present`, else those it lacks.
void SortedSubset(std::vector<Triple>* batch, const std::vector<Triple>& spo,
                  bool present) {
  const By<SpoKey> less;
  std::sort(batch->begin(), batch->end(), less);
  batch->erase(std::unique(batch->begin(), batch->end()), batch->end());
  batch->erase(std::remove_if(batch->begin(), batch->end(),
                              [&](const Triple& t) {
                                return std::binary_search(spo.begin(),
                                                          spo.end(), t,
                                                          less) != present;
                              }),
               batch->end());
}

/// Merges `delta`, sorted in the permutation's order and disjoint from
/// it, into `perm`.
template <Key (*KeyOf)(const Triple&)>
void MergeInto(std::vector<Triple>* perm, const std::vector<Triple>& delta) {
  auto middle = static_cast<std::ptrdiff_t>(perm->size());
  perm->insert(perm->end(), delta.begin(), delta.end());
  std::inplace_merge(perm->begin(), perm->begin() + middle, perm->end(),
                     By<KeyOf>());
}

/// Removes `gone`, sorted in the permutation's order and a subset of it,
/// from `perm`: the kept runs between the removed triples move down once.
template <Key (*KeyOf)(const Triple&)>
void EraseFrom(std::vector<Triple>* perm, const std::vector<Triple>& gone) {
  const By<KeyOf> less;
  auto kept = perm->begin();
  auto out = kept;
  for (const Triple& t : gone) {
    auto at = std::lower_bound(kept, perm->end(), t, less);
    out = std::copy(kept, at, out);
    kept = at + 1;
  }
  out = std::copy(kept, perm->end(), out);
  perm->erase(out, perm->end());
}

/// Appends the triples of `perm` whose keys lie in [KeyOf(lo), KeyOf(hi)]:
/// a binary search to the first, then a walk to the last.
template <Key (*KeyOf)(const Triple&)>
void KeyRange(const std::vector<Triple>& perm, const Triple& lo,
              const Triple& hi, std::vector<Triple>* out) {
  const Key from = KeyOf(lo);
  const Key to = KeyOf(hi);
  auto first = std::partition_point(
      perm.begin(), perm.end(),
      [&](const Triple& t) { return Less(KeyOf(t), from); });
  auto last = first;
  while (last != perm.end() && !Less(to, KeyOf(*last))) ++last;
  out->insert(out->end(), first, last);
}

}  // namespace

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded({dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(Triple t) { pending_.push_back(t); }

size_t TripleStore::FoldPending() const {
  if (pending_.empty()) return 0;
  std::vector<Triple> delta = std::move(pending_);
  pending_.clear();
  SortedSubset(&delta, spo_, /*present=*/false);
  if (delta.empty()) return 0;
  MergeInto<SpoKey>(&spo_, delta);
  std::sort(delta.begin(), delta.end(), By<PosKey>());
  MergeInto<PosKey>(&pos_, delta);
  std::sort(delta.begin(), delta.end(), By<OspKey>());
  MergeInto<OspKey>(&osp_, delta);
  return delta.size();
}

void TripleStore::Sync() const {
  if (pending_.empty()) return;
  obs::TraceSpan span("rdf.merge");
  size_t inserted = FoldPending();
  span.SetAttr("inserted", std::to_string(inserted));
  span.SetAttr("erased", "0");
  span.SetAttr("triples", std::to_string(spo_.size()));
}

size_t TripleStore::size() const {
  Sync();
  return spo_.size();
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pat) const {
  std::vector<Triple> out;
  Match(pat, &out);
  return out;
}

void TripleStore::Match(const TriplePattern& pat,
                        std::vector<Triple>* out) const {
  Sync();
  // Unbound positions span every id, so the matches are the triples
  // between `lo` and `hi`. In the permutation that leads with the bound
  // positions they form one contiguous range.
  constexpr TermId kMin = std::numeric_limits<TermId>::min();
  constexpr TermId kMax = std::numeric_limits<TermId>::max();
  const Triple lo{pat.s.value_or(kMin), pat.p.value_or(kMin),
                  pat.o.value_or(kMin)};
  const Triple hi{pat.s.value_or(kMax), pat.p.value_or(kMax),
                  pat.o.value_or(kMax)};
  if (pat.s && (pat.p || !pat.o)) {
    KeyRange<SpoKey>(spo_, lo, hi, out);
  } else if (pat.p) {
    KeyRange<PosKey>(pos_, lo, hi, out);
  } else if (pat.o) {
    KeyRange<OspKey>(osp_, lo, hi, out);
  } else {
    out->insert(out->end(), spo_.begin(), spo_.end());
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
  return Erase(Match(pat));
}

size_t TripleStore::Erase(std::vector<Triple> batch) {
  obs::TraceSpan span("rdf.merge");
  size_t inserted = FoldPending();
  SortedSubset(&batch, spo_, /*present=*/true);
  if (!batch.empty()) {
    EraseFrom<SpoKey>(&spo_, batch);
    std::sort(batch.begin(), batch.end(), By<PosKey>());
    EraseFrom<PosKey>(&pos_, batch);
    std::sort(batch.begin(), batch.end(), By<OspKey>());
    EraseFrom<OspKey>(&osp_, batch);
  }
  span.SetAttr("inserted", std::to_string(inserted));
  span.SetAttr("erased", std::to_string(batch.size()));
  span.SetAttr("triples", std::to_string(spo_.size()));
  return batch.size();
}

size_t TripleStore::MemoryUsage() const {
  return dict_.MemoryUsage() +
         (spo_.capacity() + pos_.capacity() + osp_.capacity() +
          pending_.capacity()) *
             sizeof(Triple);
}

}  // namespace teleios::rdf
