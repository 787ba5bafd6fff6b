// String utilities shared across the library: splitting, trimming, case
// mapping, SQL-LIKE wildcard matching, and small formatting helpers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace raptor {

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Split `s` on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// SQL LIKE matching where '%' matches any character run and '_' matches
/// one character. Matching is case-sensitive (PostgreSQL LIKE semantics).
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Replace all occurrences of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// True if every character is an ASCII digit (and s is non-empty).
bool IsAllDigits(std::string_view s);

/// Parse a signed 64-bit integer; returns false on any non-numeric input.
bool ParseInt64(std::string_view s, long long* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace raptor
