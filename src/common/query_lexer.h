// The lexical layer shared by the three query languages (TBQL, Cypher, SQL).
//
// Synthesis prints TBQL, the compiler prints SQL and Cypher, and the
// backends parse that text again, so all three must agree on what a token
// is and how a string is quoted. Each language describes its tokens as
// constant data (LexSpec): its keywords, operators, string quote and escape
// style, and whether decimal floats lex. One tokenizer (Lex), one
// recursive-descent cursor (TokenCursor) and one string printer
// (QuoteString, the inverse of string lexing) serve all three.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace raptor {

enum class TokenKind : uint8_t {
  kIdent,
  kKeyword,  // text spelled as in LexSpec::keywords
  kInt,      // unsigned decimal digits
  kFloat,    // digits '.' digits (LexSpec::floats only)
  kString,   // text is the unescaped body
  kSymbol,   // one- or two-char operator / punctuation
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t pos = 0;  // byte offset in the input, for error messages
};

enum class EscapeStyle : uint8_t {
  /// `\<quote>` and `\\` stand for the quote and one backslash; any other
  /// backslash is literal.
  kBackslash,
  /// The quote doubled stands for itself; a backslash is literal.
  kDoubled,
};

/// One language's lexical rules, as constant data.
struct LexSpec {
  /// Keywords match case-insensitively and lex as spelled here, so their
  /// spelling sets the language's keyword case.
  std::span<const std::string_view> keywords;
  std::span<const std::string_view> two_char_symbols;  // tried first
  std::string_view one_char_symbols;
  char quote = '"';
  EscapeStyle escape = EscapeStyle::kBackslash;
  /// Whether `digits.digits` lexes as one float (else int, '.', int).
  bool floats = false;
};

/// Tokenize `text`; the last token is always kEnd.
Result<std::vector<Token>> Lex(std::string_view text, const LexSpec& spec);

/// `s` as a string literal of `spec`'s language: Lex reads it back as one
/// string token whose text is exactly `s`.
std::string QuoteString(const LexSpec& spec, std::string_view s);

/// QuoteString without the surrounding quotes, for splicing a value
/// between a template's own quotes. A trailing backslash is escaped, so
/// the value cannot swallow the closing quote.
std::string EscapeString(const LexSpec& spec, std::string_view s);

/// `d` (finite, non-negative) as a float literal that Lex reads back as
/// the same double: fixed notation, always with a '.'.
std::string FormatFloat(double d);

/// Recursive-descent cursor over Lex's output. Reads past the end keep
/// returning the kEnd token.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens);

  const Token& Peek(size_t ahead = 0) const;
  const Token& Next();

  bool PeekKind(TokenKind kind, size_t ahead = 0) const {
    return Peek(ahead).kind == kind;
  }
  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const;
  bool PeekSymbol(std::string_view sym, size_t ahead = 0) const;
  bool AcceptKeyword(std::string_view kw);
  bool AcceptSymbol(std::string_view sym);
  Status ExpectKeyword(std::string_view kw);
  Status ExpectSymbol(std::string_view sym);

  /// ParseError "<msg> (at offset N)" at the current token.
  Status Err(std::string_view msg) const;

  /// Consume an identifier, or fail with "expected <what>".
  Result<std::string> Ident(std::string_view what);

  /// Consume an integer token whose value lies in [0, max]; "expected
  /// <what>" if the token is not an integer, "<what> out of range" if it
  /// does not fit.
  Result<int64_t> Int(std::string_view what,
                      int64_t max = std::numeric_limits<int64_t>::max());

  /// Consume a float token; "<what> out of range" if it is not a finite
  /// double.
  Result<double> Float(std::string_view what);

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace raptor
