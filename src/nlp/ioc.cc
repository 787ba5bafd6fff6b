#include "nlp/ioc.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

namespace raptor::nlp {

namespace {

bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsHex(char c) {
  return IsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/// Characters allowed inside a Linux path segment.
bool IsPathChar(char c) {
  return IsAlnum(c) || c == '.' || c == '_' || c == '-' || c == '+';
}

/// Characters allowed inside a Windows path segment.
bool IsWinPathChar(char c) {
  return IsAlnum(c) || c == '.' || c == '_' || c == '-' || c == '+';
}

bool IsDomainChar(char c) { return IsAlnum(c) || c == '-'; }

/// True if position i starts at a word boundary (not glued to a preceding
/// identifier-ish character).
bool BoundaryBefore(std::string_view text, size_t i) {
  if (i == 0) return true;
  char p = text[i - 1];
  return !(IsAlnum(p) || p == '_' || p == '.' || p == '/' || p == '\\' ||
           p == '-' || p == '@');
}

bool BoundaryAfter(std::string_view text, size_t end) {
  if (end >= text.size()) return true;
  char n = text[end];
  return !(IsAlnum(n) || n == '_');
}

/// Strip sentence punctuation glued to the end of a match.
size_t TrimEnd(std::string_view text, size_t begin, size_t end) {
  while (end > begin) {
    char c = text[end - 1];
    if (c == '.' || c == ',' || c == ';' || c == ':' || c == ')' ||
        c == '\'' || c == '"') {
      --end;
    } else {
      break;
    }
  }
  return end;
}

const std::unordered_set<std::string>& FileExtensions() {
  static const std::unordered_set<std::string> kExts = {
      "exe", "dll",  "sys", "sh",  "py",   "pl",   "rb",  "js",  "vbs",
      "bat", "ps1",  "doc", "docx", "xls", "xlsx", "ppt", "pptx", "pdf",
      "zip", "tar",  "gz",  "bz2", "xz",   "rar",  "7z",  "apk", "jar",
      "so",  "bin",  "img", "iso", "elf",  "o",    "txt", "log", "cfg",
      "dat", "tmp",  "php", "jsp", "asp",  "aspx", "msi", "scr", "lnk",
  };
  return kExts;
}

const std::unordered_set<std::string>& DomainTlds() {
  static const std::unordered_set<std::string> kTlds = {
      "com", "net", "org", "io",  "ru", "cn", "info", "biz",
      "co",  "uk",  "de",  "fr",  "jp", "kr", "in",   "onion",
      "xyz", "top", "cc",  "me",  "tv", "su", "ws",   "eu",
  };
  return kTlds;
}

// Every Try* matcher returns the end offset of a match starting at `i`, or
// `i` itself when there is no match.

size_t TryUrl(std::string_view text, size_t i) {
  auto starts = [&](std::string_view prefix) {
    return text.substr(i, prefix.size()) == prefix;
  };
  size_t skip = 0;
  if (starts("https://")) skip = 8;
  else if (starts("http://")) skip = 7;
  else if (starts("ftp://")) skip = 6;
  else if (starts("hxxp://")) skip = 7;   // defanged URLs in OSCTI reports
  else if (starts("hxxps://")) skip = 8;
  if (skip == 0) return i;
  size_t end = i + skip;
  while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end])) &&
         text[end] != '"' && text[end] != '\'' && text[end] != ')' &&
         text[end] != '>') {
    ++end;
  }
  end = TrimEnd(text, i, end);
  return end > i + skip ? end : i;
}

size_t TryEmail(std::string_view text, size_t i) {
  // Must start at the local part; find '@' then a dotted domain.
  size_t j = i;
  while (j < text.size() && (IsAlnum(text[j]) || text[j] == '.' ||
                             text[j] == '_' || text[j] == '%' ||
                             text[j] == '+' || text[j] == '-')) {
    ++j;
  }
  if (j == i || j >= text.size() || text[j] != '@') return i;
  size_t k = j + 1;
  while (k < text.size() && (IsDomainChar(text[k]) || text[k] == '.')) ++k;
  k = TrimEnd(text, i, k);
  // The last dot must be interior to the (trimmed) domain part.
  size_t last_dot = 0;
  for (size_t d = j + 1; d < k; ++d) {
    if (text[d] == '.') last_dot = d;
  }
  if (last_dot == 0 || last_dot >= k - 1) return i;
  return k;
}

size_t TryRegistry(std::string_view text, size_t i) {
  static const char* kRoots[] = {"HKEY_LOCAL_MACHINE", "HKEY_CURRENT_USER",
                                 "HKEY_CLASSES_ROOT",  "HKEY_USERS",
                                 "HKLM",               "HKCU"};
  size_t root_len = 0;
  for (const char* root : kRoots) {
    std::string_view r(root);
    if (text.substr(i, r.size()) == r) {
      root_len = r.size();
      break;
    }
  }
  if (root_len == 0) return i;
  size_t end = i + root_len;
  while (end < text.size() &&
         (IsAlnum(text[end]) || text[end] == '\\' || text[end] == '_' ||
          text[end] == '.' || text[end] == '-')) {
    ++end;
  }
  return TrimEnd(text, i, end);
}

size_t TryWinPath(std::string_view text, size_t i) {
  if (i + 3 > text.size()) return i;
  if (!std::isalpha(static_cast<unsigned char>(text[i]))) return i;
  if (text[i + 1] != ':' || text[i + 2] != '\\') return i;
  size_t end = i + 3;
  size_t last_good = i;
  while (end < text.size()) {
    size_t seg_start = end;
    while (end < text.size() && IsWinPathChar(text[end])) ++end;
    if (end == seg_start) break;
    last_good = end;
    if (end < text.size() && text[end] == '\\') {
      ++end;
    } else {
      break;
    }
  }
  if (last_good <= i + 3) return i;
  return TrimEnd(text, i, last_good);
}

size_t TryLinuxPath(std::string_view text, size_t i) {
  if (text[i] != '/') return i;
  size_t end = i;
  int segments = 0;
  while (end < text.size() && text[end] == '/') {
    size_t seg_start = end + 1;
    size_t k = seg_start;
    while (k < text.size() && IsPathChar(text[k])) ++k;
    if (k == seg_start) break;
    ++segments;
    end = k;
  }
  if (segments == 0) return i;
  size_t trimmed = TrimEnd(text, i, end);
  // A path must contain a non-dot character after the leading slash.
  if (trimmed <= i + 1) return i;
  return trimmed;
}

size_t TryIp(std::string_view text, size_t i) {
  size_t j = i;
  int octets = 0;
  while (octets < 4) {
    size_t digit_start = j;
    int value = 0;
    while (j < text.size() && IsDigit(text[j]) && j - digit_start < 3) {
      value = value * 10 + (text[j] - '0');
      ++j;
    }
    if (j == digit_start || value > 255) return i;
    ++octets;
    if (octets < 4) {
      if (j >= text.size() || text[j] != '.') return i;
      ++j;
    }
  }
  // Optional CIDR suffix.
  size_t end = j;
  if (end < text.size() && text[end] == '/') {
    size_t k = end + 1;
    size_t digit_start = k;
    while (k < text.size() && IsDigit(text[k]) && k - digit_start < 2) ++k;
    if (k > digit_start) end = k;
  }
  if (!BoundaryAfter(text, end)) return i;
  // Reject version strings like 1.2.3.4.5 (a 5th dotted numeric group), but
  // allow a sentence-final period.
  if (end + 1 < text.size() && text[end] == '.' && IsDigit(text[end + 1])) {
    return i;
  }
  return end;
}

size_t TryHash(std::string_view text, size_t i) {
  size_t j = i;
  while (j < text.size() && IsHex(text[j])) ++j;
  size_t len = j - i;
  if ((len == 32 || len == 40 || len == 64) && BoundaryAfter(text, j)) {
    // Require at least one letter and one digit, else it is a number run.
    bool has_alpha = false, has_digit = false;
    for (size_t k = i; k < j; ++k) {
      if (IsDigit(text[k])) has_digit = true;
      else has_alpha = true;
    }
    if (has_alpha && has_digit) return j;
  }
  return i;
}

size_t TryCve(std::string_view text, size_t i) {
  if (text.substr(i, 4) != "CVE-") return i;
  size_t j = i + 4;
  size_t year_start = j;
  while (j < text.size() && IsDigit(text[j])) ++j;
  if (j - year_start != 4 || j >= text.size() || text[j] != '-') return i;
  ++j;
  size_t num_start = j;
  while (j < text.size() && IsDigit(text[j])) ++j;
  if (j - num_start < 4 || j - num_start > 7) return i;
  return j;
}

size_t TryDomain(std::string_view text, size_t i) {
  if (!IsAlnum(text[i])) return i;
  size_t j = i;
  std::vector<std::pair<size_t, size_t>> labels;  // [begin, end)
  while (true) {
    size_t label_start = j;
    while (j < text.size() && IsDomainChar(text[j])) ++j;
    if (j == label_start) return i;
    labels.emplace_back(label_start, j);
    if (j < text.size() && text[j] == '.' && j + 1 < text.size() &&
        IsDomainChar(text[j + 1])) {
      ++j;
    } else {
      break;
    }
  }
  if (labels.size() < 2) return i;
  auto [tb, te] = labels.back();
  std::string tld(text.substr(tb, te - tb));
  std::transform(tld.begin(), tld.end(), tld.begin(), ::tolower);
  bool tld_ok = DomainTlds().count(tld) > 0;
  if (!tld_ok && labels.size() >= 3) {
    // Reversed-domain identifiers (Android package names such as
    // com.android.defcontainer) put the TLD first.
    auto [fb, fe] = labels.front();
    std::string first(text.substr(fb, fe - fb));
    std::transform(first.begin(), first.end(), first.begin(), ::tolower);
    tld_ok = DomainTlds().count(first) > 0;
  }
  if (!tld_ok) return i;
  // Purely numeric "domains" are really broken IPs.
  bool any_alpha = false;
  for (size_t k = i; k < te; ++k) {
    if (std::isalpha(static_cast<unsigned char>(text[k]))) any_alpha = true;
  }
  if (!any_alpha) return i;
  return te;
}

size_t TryFilename(std::string_view text, size_t i) {
  if (!IsAlnum(text[i]) && text[i] != '_') return i;
  size_t j = i;
  while (j < text.size() && (IsAlnum(text[j]) || text[j] == '_' ||
                             text[j] == '-' || text[j] == '.')) {
    ++j;
  }
  j = TrimEnd(text, i, j);
  // The extension dot must be interior to the (trimmed) candidate; a
  // sentence-final period must not count.
  size_t last_dot = 0;
  for (size_t d = i + 1; d < j; ++d) {
    if (text[d] == '.') last_dot = d;
  }
  if (last_dot == 0 || last_dot <= i || last_dot >= j - 1) return i;
  std::string ext(text.substr(last_dot + 1, j - last_dot - 1));
  std::transform(ext.begin(), ext.end(), ext.begin(), ::tolower);
  if (!FileExtensions().count(ext)) return i;
  return j;
}

int Priority(IocType type) {
  switch (type) {
    case IocType::kUrl: return 0;
    case IocType::kEmail: return 1;
    case IocType::kRegistry: return 2;
    case IocType::kWinFilepath: return 3;
    case IocType::kFilepath: return 4;
    case IocType::kIp: return 5;
    case IocType::kHash: return 6;
    case IocType::kCve: return 7;
    case IocType::kDomain: return 8;
    case IocType::kFilename: return 9;
  }
  return 100;
}

}  // namespace

const char* IocTypeName(IocType type) {
  switch (type) {
    case IocType::kFilepath: return "Filepath";
    case IocType::kWinFilepath: return "WinFilepath";
    case IocType::kFilename: return "Filename";
    case IocType::kIp: return "IP";
    case IocType::kDomain: return "Domain";
    case IocType::kUrl: return "URL";
    case IocType::kEmail: return "Email";
    case IocType::kHash: return "Hash";
    case IocType::kRegistry: return "Registry";
    case IocType::kCve: return "CVE";
  }
  return "?";
}

std::vector<IocMatch> RecognizeIocs(std::string_view text) {
  struct Candidate {
    IocMatch match;
    int priority;
  };
  std::vector<Candidate> candidates;
  using Matcher = size_t (*)(std::string_view, size_t);
  static const std::pair<Matcher, IocType> kMatchers[] = {
      {TryUrl, IocType::kUrl},
      {TryEmail, IocType::kEmail},
      {TryRegistry, IocType::kRegistry},
      {TryWinPath, IocType::kWinFilepath},
      {TryLinuxPath, IocType::kFilepath},
      {TryIp, IocType::kIp},
      {TryHash, IocType::kHash},
      {TryCve, IocType::kCve},
      {TryDomain, IocType::kDomain},
      {TryFilename, IocType::kFilename},
  };

  for (size_t i = 0; i < text.size(); ++i) {
    if (!BoundaryBefore(text, i) && text[i] != '/') continue;
    for (const auto& [matcher, type] : kMatchers) {
      size_t end = matcher(text, i);
      if (end > i) {
        Candidate c;
        c.match.type = type;
        c.match.begin = i;
        c.match.end = end;
        c.match.text = std::string(text.substr(i, end - i));
        c.priority = Priority(type);
        candidates.push_back(std::move(c));
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.match.begin != b.match.begin) {
                return a.match.begin < b.match.begin;
              }
              size_t alen = a.match.end - a.match.begin;
              size_t blen = b.match.end - b.match.begin;
              if (alen != blen) return alen > blen;  // longest first
              return a.priority < b.priority;
            });
  std::vector<IocMatch> out;
  size_t last_end = 0;
  for (Candidate& c : candidates) {
    if (c.match.begin >= last_end) {
      last_end = c.match.end;
      out.push_back(std::move(c.match));
    }
  }
  return out;
}

}  // namespace raptor::nlp
