// Lexicon + suffix-rule part-of-speech tagger and lemmatizer.
//
// Substitutes spaCy's statistical tagger: OSCTI prose after IOC Protection
// is ordinary English with a narrow vocabulary (attack verbs, system nouns),
// which a lexicon-first tagger with suffix fallbacks and a few contextual
// repair rules handles well. The lemmatizer backs the relation-verb
// normalization of extraction Step 9 (e.g. "wrote" -> "write").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "nlp/tokenizer.h"

namespace raptor::nlp {

enum class Pos {
  kNoun = 0,
  kPropn,
  kVerb,
  kAux,
  kDet,
  kAdp,    // preposition
  kPron,
  kAdv,
  kAdj,
  kNum,
  kCconj,
  kSconj,
  kPart,   // infinitival "to"
  kPunct,
  kX,
};

/// Tag a tokenized sentence. Applies lexicon lookups, suffix heuristics and
/// contextual repair rules (infinitival "to", participles after
/// determiners, sentence-initial capitalization).
std::vector<Pos> TagTokens(const std::vector<Token>& tokens);

/// Lemmatize `word` given its POS (verbs get inflection stripping with an
/// irregular-form table; other classes mostly lower-case + plural strip).
std::string Lemma(std::string_view word, Pos pos);

}  // namespace raptor::nlp
