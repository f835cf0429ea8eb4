#include "rdf/turtle.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <numeric>
#include <sstream>

#include "common/strings.h"

namespace teleios::rdf {

namespace {

class TurtleParser {
 public:
  TurtleParser(const std::string& text, TripleStore* store)
      : text_(text), store_(store) {}

  Result<size_t> Run() {
    size_t added = 0;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) break;
      if (TryDirective()) continue;
      TELEIOS_ASSIGN_OR_RETURN(Term subject, ParseTerm());
      if (subject.IsLiteral()) {
        return Err("literal cannot be a subject");
      }
      TELEIOS_ASSIGN_OR_RETURN(size_t n, ParsePredicateObjectList(subject));
      added += n;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '.') {
        ++pos_;
      } else {
        return Err("expected '.' after triples");
      }
    }
    return added;
  }

 private:
  Status Err(const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool TryDirective() {
    size_t save = pos_;
    std::string word;
    if (text_[pos_] == '@') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
        word += text_[pos_++];
      }
    } else {
      size_t p = pos_;
      while (p < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[p]))) {
        word += text_[p++];
      }
      if (!StrEqualsIgnoreCase(word, "prefix") &&
          !StrEqualsIgnoreCase(word, "base")) {
        return false;
      }
      pos_ = p;
    }
    if (StrEqualsIgnoreCase(word, "prefix")) {
      SkipWs();
      std::string name;
      while (pos_ < text_.size() && text_[pos_] != ':') {
        name += text_[pos_++];
      }
      ++pos_;  // ':'
      SkipWs();
      auto iri = ParseIriRef();
      if (iri.ok()) prefixes_[std::string(StrTrim(name))] = *iri;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '.') ++pos_;
      return true;
    }
    if (StrEqualsIgnoreCase(word, "base")) {
      SkipWs();
      auto iri = ParseIriRef();
      if (iri.ok()) base_ = *iri;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '.') ++pos_;
      return true;
    }
    pos_ = save;
    return false;
  }

  Result<std::string> ParseIriRef() {
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Err("expected IRI");
    }
    ++pos_;
    std::string iri;
    while (pos_ < text_.size() && text_[pos_] != '>') {
      iri += text_[pos_++];
    }
    if (pos_ >= text_.size()) return Err("unterminated IRI");
    ++pos_;  // '>'
    if (!base_.empty() && iri.find("://") == std::string::npos) {
      return base_ + iri;
    }
    return iri;
  }

  Result<Term> ParseTerm() {
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '<') {
      TELEIOS_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      return Term::Iri(std::move(iri));
    }
    if (c == '_') {
      pos_ += 2;  // "_:"
      std::string label;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        label += text_[pos_++];
      }
      return Term::Blank(std::move(label));
    }
    if (c == '"' || c == '\'') {
      return ParseLiteral();
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+') {
      std::string num;
      bool is_double = false;
      if (c == '-' || c == '+') num += text_[pos_++];
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' ||
              ((text_[pos_] == '-' || text_[pos_] == '+') && pos_ > 0 &&
               (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
        if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
          is_double = true;
        }
        num += text_[pos_++];
      }
      // Trailing '.' is the statement terminator, not part of the number.
      if (!num.empty() && num.back() == '.') {
        num.pop_back();
        --pos_;
        is_double = num.find('.') != std::string::npos;
      }
      return Term::Literal(num, is_double ? kXsdDouble : kXsdInteger);
    }
    // 'a' keyword or prefixed name or true/false.
    std::string word;
    size_t p = pos_;
    while (p < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[p])) ||
            text_[p] == '_' || text_[p] == '-' || text_[p] == '.' ||
            text_[p] == ':')) {
      word += text_[p++];
    }
    if (word == "a") {
      pos_ = p;
      return Term::Iri(kRdfType);
    }
    if (word == "true" || word == "false") {
      pos_ = p;
      return Term::BooleanLiteral(word == "true");
    }
    size_t colon = word.find(':');
    if (colon == std::string::npos) {
      return Err("expected term, got '" + word + "'");
    }
    // Prefixed name may not end with '.' (statement dot).
    while (!word.empty() && word.back() == '.') {
      word.pop_back();
      --p;
    }
    pos_ = p;
    std::string prefix = word.substr(0, colon);
    std::string local = word.substr(colon + 1);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Err("unknown prefix '" + prefix + ":'");
    }
    return Term::Iri(it->second + local);
  }

  Result<Term> ParseLiteral() {
    char quote = text_[pos_];
    bool triple_quoted = false;
    if (pos_ + 2 < text_.size() && text_[pos_ + 1] == quote &&
        text_[pos_ + 2] == quote) {
      triple_quoted = true;
      pos_ += 3;
    } else {
      ++pos_;
    }
    std::string value;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\\' && pos_ + 1 < text_.size()) {
        char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case 'n':
            value += '\n';
            break;
          case 't':
            value += '\t';
            break;
          case 'r':
            value += '\r';
            break;
          case '\\':
            value += '\\';
            break;
          case '"':
            value += '"';
            break;
          case '\'':
            value += '\'';
            break;
          default:
            value += e;
        }
        continue;
      }
      if (c == quote) {
        if (triple_quoted) {
          if (pos_ + 2 < text_.size() && text_[pos_ + 1] == quote &&
              text_[pos_ + 2] == quote) {
            pos_ += 3;
            break;
          }
          value += c;
          ++pos_;
          continue;
        }
        ++pos_;
        break;
      }
      value += c;
      ++pos_;
    }
    // Suffix: @lang or ^^datatype.
    if (pos_ < text_.size() && text_[pos_] == '@') {
      ++pos_;
      std::string lang;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-')) {
        lang += text_[pos_++];
      }
      return Term::Literal(std::move(value), "", std::move(lang));
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
        text_[pos_ + 1] == '^') {
      pos_ += 2;
      TELEIOS_ASSIGN_OR_RETURN(Term dt, ParseTerm());
      if (!dt.IsIri()) return Err("datatype must be an IRI");
      return Term::Literal(std::move(value), dt.lexical);
    }
    return Term::Literal(std::move(value));
  }

  Result<size_t> ParsePredicateObjectList(const Term& subject) {
    size_t added = 0;
    while (true) {
      TELEIOS_ASSIGN_OR_RETURN(Term predicate, ParseTerm());
      if (!predicate.IsIri()) return Err("predicate must be an IRI");
      while (true) {
        TELEIOS_ASSIGN_OR_RETURN(Term object, ParseTerm());
        store_->Add(subject, predicate, object);
        ++added;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ';') {
        ++pos_;
        SkipWs();
        // Allow trailing ';' before '.'.
        if (pos_ < text_.size() && text_[pos_] == '.') break;
        continue;
      }
      break;
    }
    return added;
  }

  const std::string& text_;
  TripleStore* store_;
  size_t pos_ = 0;
  std::string base_;
  std::map<std::string, std::string> prefixes_;
};

/// Shortens `iri` with the longest matching prefix.
std::string Shorten(const std::string& iri,
                    const std::map<std::string, std::string>& prefixes) {
  std::string best_name;
  size_t best_len = 0;
  for (const auto& [name, p] : prefixes) {
    if (p.size() > best_len && StrStartsWith(iri, p)) {
      best_len = p.size();
      best_name = name;
    }
  }
  if (best_len == 0) return "<" + iri + ">";
  std::string local = iri.substr(best_len);
  for (char c : local) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      return "<" + iri + ">";  // local part not a valid PN_LOCAL
    }
  }
  return best_name + ":" + local;
}

std::string TermToTurtle(const Term& t,
                         const std::map<std::string, std::string>& prefixes) {
  if (t.IsIri()) {
    if (t.lexical == kRdfType) return "a";
    return Shorten(t.lexical, prefixes);
  }
  if (t.IsBlank()) return "_:" + t.lexical;
  std::string out = "\"" + EscapeNTriplesString(t.lexical) + "\"";
  if (!t.lang.empty()) {
    out += "@" + t.lang;
  } else if (!t.datatype.empty()) {
    out += "^^" + Shorten(t.datatype, prefixes);
  }
  return out;
}

}  // namespace

Result<size_t> ParseTurtle(const std::string& text, TripleStore* store) {
  TurtleParser parser(text, store);
  return parser.Run();
}

std::string WriteTurtle(const TripleStore& store,
                        const std::map<std::string, std::string>& prefixes) {
  std::ostringstream os;
  for (const auto& [name, iri] : prefixes) {
    os << "@prefix " << name << ": <" << iri << "> .\n";
  }
  if (!prefixes.empty()) os << "\n";
  // Triples list in the order of their terms' text, not of their ids, so
  // a store that interned the same triples in another order writes the
  // same document: each distinct term is rendered and ranked once (equal
  // text, equal rank), then the triples sort by rank.
  const std::vector<Triple> all = store.Match(TriplePattern{});
  const TermDictionary& dict = store.dict();
  std::vector<TermId> ids;
  ids.reserve(all.size() * 3);
  for (const Triple& t : all) {
    ids.insert(ids.end(), {t.s, t.p, t.o});
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::string> text(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    text[i] = TermToTurtle(dict.At(ids[i]), prefixes);
  }
  std::vector<uint32_t> by_text(ids.size());
  std::iota(by_text.begin(), by_text.end(), 0);
  std::sort(by_text.begin(), by_text.end(),
            [&](uint32_t a, uint32_t b) { return text[a] < text[b]; });
  // rank[i]: the rank of term ids[i], the first position of its text in
  // by_text.
  std::vector<uint32_t> rank(ids.size());
  for (size_t i = 0; i < by_text.size(); ++i) {
    const bool tie = i > 0 && text[by_text[i]] == text[by_text[i - 1]];
    rank[by_text[i]] = tie ? rank[by_text[i - 1]] : static_cast<uint32_t>(i);
  }
  auto rank_of = [&](TermId id) {
    return rank[std::lower_bound(ids.begin(), ids.end(), id) - ids.begin()];
  };
  std::vector<std::array<uint32_t, 3>> ranked;
  ranked.reserve(all.size());
  for (const Triple& t : all) {
    ranked.push_back({rank_of(t.s), rank_of(t.p), rank_of(t.o)});
  }
  std::sort(ranked.begin(), ranked.end());
  auto term = [&](uint32_t r) -> const std::string& {
    return text[by_text[r]];
  };
  // Group by subject, then by predicate.
  for (size_t i = 0; i < ranked.size();) {
    const uint32_t s = ranked[i][0];
    os << term(s);
    size_t j = i;
    bool first = true;
    while (j < ranked.size() && ranked[j][0] == s) {
      os << (first ? " " : " ;\n    ");
      first = false;
      const uint32_t p = ranked[j][1];
      os << term(p) << " " << term(ranked[j][2]);
      ++j;
      while (j < ranked.size() && ranked[j][0] == s && ranked[j][1] == p) {
        os << ", " << term(ranked[j][2]);
        ++j;
      }
    }
    os << " .\n";
    i = j;
  }
  return os.str();
}

}  // namespace teleios::rdf
