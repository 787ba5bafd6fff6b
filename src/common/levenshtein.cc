#include "common/levenshtein.h"

#include <algorithm>
#include <vector>

namespace raptor {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t prev = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t cur = row[i];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, prev + cost});
      prev = cur;
    }
  }
  return row[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

}  // namespace raptor
