#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace teleios {

std::vector<std::string> StrSplit(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StrTrim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string StrLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StrStartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool StrEndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool StrEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty integer");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

uint64_t EnvNumber(const char* name, uint64_t def) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  std::string_view digits(env);
  const char suffix = std::tolower(static_cast<unsigned char>(digits.back()));
  const int shift =
      suffix == 'k' ? 10 : suffix == 'm' ? 20 : suffix == 'g' ? 30 : 0;
  if (shift > 0) digits.remove_suffix(1);
  uint64_t v = 0;
  const char* end = digits.data() + digits.size();
  auto parsed = std::from_chars(digits.data(), end, v);
  if (digits.empty() || parsed.ec != std::errc() || parsed.ptr != end ||
      v > (UINT64_MAX >> shift)) {
    TELEIOS_LOG(Warning) << name << "='" << env
                         << "' is not digits with an optional k/m/g "
                            "suffix; using "
                         << def;
    return def;
  }
  return v << shift;
}

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty double");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid double: '" + buf + "'");
  }
  return v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

}  // namespace teleios
