// IOC (Indicator of Compromise) recognition via regex rules (Sec III-C,
// Step 2). Extends the coverage of the open-source ioc-parser the paper
// started from: distinguishes Linux vs. Windows file paths, recognizes
// bare file names, IPs (with optional CIDR suffix), domains, URLs, emails,
// MD5/SHA1/SHA256 hashes, Windows registry keys and CVE identifiers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace raptor::nlp {

enum class IocType {
  kFilepath = 0,   // Linux absolute path
  kWinFilepath,    // Windows drive-letter path
  kFilename,       // bare file name with a known extension
  kIp,             // IPv4, optional /CIDR
  kDomain,
  kUrl,
  kEmail,
  kHash,           // MD5 / SHA-1 / SHA-256 hex digest
  kRegistry,       // Windows registry key
  kCve,
};

const char* IocTypeName(IocType type);

struct IocMatch {
  IocType type = IocType::kFilepath;
  std::string text;
  size_t begin = 0;  // byte offsets into the scanned text
  size_t end = 0;
};

/// Scan `text` and return all non-overlapping IOC matches, leftmost-longest,
/// ordered by position. Overlaps resolve by priority (URL > email > registry
/// > Windows path > Linux path > IP > hash > CVE > domain > file name) and
/// then by length.
std::vector<IocMatch> RecognizeIocs(std::string_view text);

}  // namespace raptor::nlp
