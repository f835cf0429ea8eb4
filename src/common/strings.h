#ifndef TELEIOS_COMMON_STRINGS_H_
#define TELEIOS_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace teleios {

/// Splits `input` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view input, char sep);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

/// ASCII lowercase copy.
std::string StrLower(std::string_view s);

bool StrStartsWith(std::string_view s, std::string_view prefix);
bool StrEndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool StrEqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a signed 64-bit integer from the whole of `s`.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double from the whole of `s`.
Result<double> ParseDouble(std::string_view s);

/// A numeric TELEIOS_* setting: digits, an optional k, m or g suffix
/// (binary multiples, either case) and nothing else. Unset or empty gives
/// `def`; a value that does not parse logs one warning naming `name` and
/// gives `def` too.
uint64_t EnvNumber(const char* name, uint64_t def);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace teleios

#endif  // TELEIOS_COMMON_STRINGS_H_
