#include "common/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace raptor {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (haystack.size() < needle.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    for (; j < needle.size(); ++j) {
      if (std::tolower(static_cast<unsigned char>(haystack[i + j])) !=
          std::tolower(static_cast<unsigned char>(needle[j]))) {
        break;
      }
    }
    if (j == needle.size()) return true;
  }
  return false;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    // The wildcard branch must run before the literal branch: a '%' in the
    // pattern is always a wildcard, even when the text holds a literal '%'.
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool ParseInt64(std::string_view s, long long* out) {
  s = TrimView(s);
  if (s.empty()) return false;
  char buf[32];
  if (s.size() >= sizeof(buf)) return false;
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  long long v = std::strtoll(buf, &end, 10);
  if (end != buf + s.size()) return false;
  *out = v;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace raptor
