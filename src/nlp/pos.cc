#include "nlp/pos.h"

#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"

namespace raptor::nlp {

namespace {

const std::unordered_set<std::string>& VerbBases() {
  static const std::unordered_set<std::string> kBases = {
      "use",      "leverage",  "utilize",  "employ",    "read",
      "write",    "download",  "upload",   "open",      "execute",
      "launch",   "run",       "connect",  "send",      "receive",
      "transfer", "steal",     "exfiltrate", "compress", "encrypt",
      "decrypt",  "scan",      "copy",     "create",    "spawn",
      "drop",     "install",   "access",   "gather",    "collect",
      "leak",     "fetch",     "retrieve", "modify",    "delete",
      "rename",   "extract",   "store",    "save",      "visit",
      "click",    "deliver",   "inject",   "communicate", "crack",
      "scrape",   "encode",    "decode",   "establish", "maintain",
      "exploit",  "penetrate", "infect",   "attempt",   "correspond",
      "involve",  "include",   "contain",  "get",       "obtain",
      "move",     "place",     "attack",    "start",
      "load",     "log",       "beacon",   "request",   "resolve",
      "target",   "persist",   "escalate", "enumerate", "harvest",
  };
  return kBases;
}

const std::unordered_map<std::string, std::string>& IrregularVerbs() {
  static const std::unordered_map<std::string, std::string> kIrregular = {
      {"wrote", "write"},   {"written", "write"}, {"read", "read"},
      {"ran", "run"},       {"run", "run"},       {"sent", "send"},
      {"stole", "steal"},   {"stolen", "steal"},  {"got", "get"},
      {"took", "take"},     {"taken", "take"},    {"made", "make"},
      {"did", "do"},        {"done", "do"},       {"was", "be"},
      {"were", "be"},       {"is", "be"},         {"are", "be"},
      {"been", "be"},       {"being", "be"},      {"has", "have"},
      {"had", "have"},      {"have", "have"},     {"went", "go"},
      {"came", "come"},     {"saw", "see"},       {"seen", "see"},
      {"found", "find"},    {"left", "leave"},    {"brought", "bring"},
      {"began", "begin"},   {"begun", "begin"},   {"chose", "choose"},
      {"gave", "give"},     {"given", "give"},    {"put", "put"},
      {"kept", "keep"},     {"held", "hold"},     {"set", "set"},
      {"built", "build"},   {"sought", "seek"},
  };
  return kIrregular;
}

enum class LexClass {
  kAux, kDet, kAdp, kPron, kAdv, kCconj, kSconj, kNoun, kAdj,
};

const std::unordered_map<std::string, LexClass>& Lexicon() {
  static const std::unordered_map<std::string, LexClass> kLex = [] {
    std::unordered_map<std::string, LexClass> m;
    auto add = [&m](std::initializer_list<const char*> words, LexClass cls) {
      for (const char* w : words) m.emplace(w, cls);
    };
    add({"is", "are", "was", "were", "be", "been", "being", "has", "have",
         "had", "do", "does", "did", "will", "would", "can", "could", "may",
         "might", "must", "should", "shall"},
        LexClass::kAux);
    add({"the", "a", "an", "this", "that", "these", "those", "its", "his",
         "her", "their", "our", "such", "each", "any", "some", "no", "all",
         "both", "another"},
        LexClass::kDet);
    add({"of", "in", "on", "at", "from", "to", "into", "onto", "with", "by",
         "for", "over", "under", "through", "against", "via", "within",
         "during", "about", "across", "toward", "towards", "between",
         "after", "before"},
        LexClass::kAdp);
    add({"it", "he", "she", "they", "them", "him", "we", "you", "i",
         "itself", "himself", "themselves", "who", "whom"},
        LexClass::kPron);
    add({"then", "finally", "first", "next", "later", "subsequently",
         "afterwards", "also", "again", "immediately", "remotely",
         "locally", "successfully", "further", "back", "directly", "mainly",
         "already", "once", "now", "there", "here", "not"},
        LexClass::kAdv);
    add({"and", "or", "but"}, LexClass::kCconj);
    add({"which", "when", "where", "because", "if", "while", "as", "since",
         "whereas", "although", "so"},
        LexClass::kSconj);
    add({"attacker", "file", "files", "process", "processes", "data",
         "information", "credentials", "host", "hosts", "server", "servers",
         "victim", "malware", "payload", "tool", "tools", "utility",
         "script", "command", "commands", "stage", "image", "images",
         "metadata", "address", "addresses", "connection", "connections",
         "system", "systems", "user", "users", "password", "passwords",
         "vulnerability", "vulnerabilities", "service", "services", "email",
         "emails", "attachment", "attachments", "link", "links", "browser",
         "extension", "backdoor", "repository", "device", "devices",
         "network", "networks", "step", "steps", "behavior", "behaviors",
         "activity", "activities", "asset", "assets", "shell", "kernel",
         "macro", "document", "documents", "text", "content", "contents",
         "something", "details", "scanning", "cracker", "compression",
         "reconnaissance", "penetration", "movement", "exfiltration",
         "phishing"},
        LexClass::kNoun);
    add({"malicious", "sensitive", "valuable", "important", "remote",
         "local", "clear", "public", "private", "direct", "known",
         "notorious", "final", "initial", "multiple", "several", "new",
         "same", "lateral", "first"},
        LexClass::kAdj);
    return m;
  }();
  return kLex;
}

bool IsVerbLike(const std::string& lower) {
  if (VerbBases().count(lower)) return true;
  if (IrregularVerbs().count(lower)) return true;
  // Inflected form of a known base?
  std::string lemma = Lemma(lower, Pos::kVerb);
  return VerbBases().count(lemma) > 0;
}

Pos TagOne(const std::string& raw, bool sentence_initial) {
  if (raw.empty()) return Pos::kX;
  char c0 = raw[0];
  if (std::ispunct(static_cast<unsigned char>(c0)) && raw.size() == 1) {
    return Pos::kPunct;
  }
  if (IsAllDigits(raw)) return Pos::kNum;
  std::string lower = ToLower(raw);
  auto it = Lexicon().find(lower);
  if (it != Lexicon().end()) {
    switch (it->second) {
      case LexClass::kAux: return Pos::kAux;
      case LexClass::kDet: return Pos::kDet;
      case LexClass::kAdp: return Pos::kAdp;
      case LexClass::kPron: return Pos::kPron;
      case LexClass::kAdv: return Pos::kAdv;
      case LexClass::kCconj: return Pos::kCconj;
      case LexClass::kSconj: return Pos::kSconj;
      case LexClass::kNoun: return Pos::kNoun;
      case LexClass::kAdj: return Pos::kAdj;
    }
  }
  if (IsVerbLike(lower)) return Pos::kVerb;
  if (EndsWith(lower, "ly")) return Pos::kAdv;
  if (EndsWith(lower, "tion") || EndsWith(lower, "ment") ||
      EndsWith(lower, "ness") || EndsWith(lower, "ity") ||
      EndsWith(lower, "ware")) {
    return Pos::kNoun;
  }
  if (EndsWith(lower, "ed") || EndsWith(lower, "ing")) return Pos::kVerb;
  if (!sentence_initial && std::isupper(static_cast<unsigned char>(c0))) {
    return Pos::kPropn;
  }
  return Pos::kNoun;
}

}  // namespace

std::vector<Pos> TagTokens(const std::vector<Token>& tokens) {
  std::vector<Pos> tags(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    tags[i] = TagOne(tokens[i].text, /*sentence_initial=*/i == 0);
  }
  // Contextual repairs.
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string lower = ToLower(tokens[i].text);
    // Infinitival "to": ADP -> PART when followed by a verb.
    if (lower == "to" && i + 1 < tokens.size() &&
        (tags[i + 1] == Pos::kVerb || tags[i + 1] == Pos::kAux)) {
      tags[i] = Pos::kPart;
    }
    // Participle between DET/ADJ and a (possibly adjective-modified) noun is
    // adjectival: "the gathered data", "the launched process", "the
    // gathered sensitive information".
    if (tags[i] == Pos::kVerb && i > 0 &&
        (tags[i - 1] == Pos::kDet || tags[i - 1] == Pos::kAdj) &&
        (EndsWith(lower, "ed") || EndsWith(lower, "ing") ||
         EndsWith(lower, "en"))) {
      size_t j = i + 1;
      while (j < tokens.size() && tags[j] == Pos::kAdj) ++j;
      if (j < tokens.size() &&
          (tags[j] == Pos::kNoun || tags[j] == Pos::kPropn)) {
        tags[i] = Pos::kAdj;
      }
    }
    // A verb-tagged token directly after a determiner with nothing nominal
    // following is a noun ("the read" is rare; favour noun).
    if (tags[i] == Pos::kVerb && i > 0 && tags[i - 1] == Pos::kDet &&
        (i + 1 >= tokens.size() || tags[i + 1] == Pos::kPunct ||
         tags[i + 1] == Pos::kAdp)) {
      tags[i] = Pos::kNoun;
    }
    // Verb/noun homographs in noun-noun compounds ("the exploit page",
    // "the download link"): a non-participle verb between a determiner and
    // a nominal is the compound modifier, not a verb.
    if (tags[i] == Pos::kVerb && i > 0 && tags[i - 1] == Pos::kDet &&
        i + 1 < tokens.size() &&
        (tags[i + 1] == Pos::kNoun || tags[i + 1] == Pos::kPropn) &&
        !EndsWith(lower, "ed") && !EndsWith(lower, "ing")) {
      tags[i] = Pos::kNoun;
    }
  }
  return tags;
}

std::string Lemma(std::string_view word, Pos pos) {
  std::string lower = ToLower(word);
  if (pos == Pos::kVerb || pos == Pos::kAux) {
    auto it = IrregularVerbs().find(lower);
    if (it != IrregularVerbs().end()) return it->second;
    auto known = [](const std::string& s) { return VerbBases().count(s) > 0; };
    if (known(lower)) return lower;
    if (EndsWith(lower, "ies") && lower.size() > 3) {
      return lower.substr(0, lower.size() - 3) + "y";
    }
    if (EndsWith(lower, "es") && lower.size() > 2) {
      std::string stem = lower.substr(0, lower.size() - 2);
      if (known(stem)) return stem;
      if (known(stem + "e")) return stem + "e";
    }
    if (EndsWith(lower, "s") && !EndsWith(lower, "ss") && lower.size() > 1) {
      std::string stem = lower.substr(0, lower.size() - 1);
      if (known(stem)) return stem;
    }
    if (EndsWith(lower, "ied") && lower.size() > 3) {
      std::string stem = lower.substr(0, lower.size() - 3) + "y";
      if (known(stem)) return stem;          // copied -> copy
    }
    if (EndsWith(lower, "ed") && lower.size() > 2) {
      std::string stem = lower.substr(0, lower.size() - 2);
      if (known(stem)) return stem;
      if (known(stem + "e")) return stem + "e";   // leveraged -> leverage
      if (stem.size() >= 2 && stem[stem.size() - 1] == stem[stem.size() - 2]) {
        std::string undoubled = stem.substr(0, stem.size() - 1);
        if (known(undoubled)) return undoubled;   // dropped -> drop
      }
      return stem;
    }
    if (EndsWith(lower, "ing") && lower.size() > 3) {
      std::string stem = lower.substr(0, lower.size() - 3);
      if (known(stem)) return stem;
      if (known(stem + "e")) return stem + "e";   // using -> use
      if (stem.size() >= 2 && stem[stem.size() - 1] == stem[stem.size() - 2]) {
        std::string undoubled = stem.substr(0, stem.size() - 1);
        if (known(undoubled)) return undoubled;   // scanning -> scan
      }
      return stem;
    }
    if (EndsWith(lower, "s") && lower.size() > 1) {
      return lower.substr(0, lower.size() - 1);
    }
    return lower;
  }
  if (pos == Pos::kNoun) {
    if (EndsWith(lower, "ies") && lower.size() > 3) {
      return lower.substr(0, lower.size() - 3) + "y";
    }
    if (EndsWith(lower, "ses") || EndsWith(lower, "xes") ||
        EndsWith(lower, "ches") || EndsWith(lower, "shes")) {
      return lower.substr(0, lower.size() - 2);
    }
    if (EndsWith(lower, "s") && !EndsWith(lower, "ss") && lower.size() > 1) {
      return lower.substr(0, lower.size() - 1);
    }
  }
  return lower;
}

}  // namespace raptor::nlp
