// Levenshtein edit distance and derived string similarity, used by the
// fuzzy search mode for node-level alignment (Sec III-F of the paper) and
// by the IOC scan-and-merge step of the extraction pipeline (Step 8).
#pragma once

#include <string_view>

namespace raptor {

/// Classic Levenshtein edit distance (insert/delete/substitute, unit cost).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized similarity in [0,1]: 1 - distance / max(len(a), len(b)).
/// Two empty strings are defined to have similarity 1.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

}  // namespace raptor
