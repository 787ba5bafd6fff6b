#include "common/query_lexer.h"

#include <cctype>
#include <charconv>

#include "common/strings.h"

namespace raptor {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Read the string literal opening at text[*i]; on success *i is one past
/// the closing quote.
Result<std::string> LexString(std::string_view text, size_t* i,
                              const LexSpec& spec) {
  size_t start = (*i)++;
  std::string s;
  while (*i < text.size()) {
    char c = text[(*i)++];
    char next = *i < text.size() ? text[*i] : '\0';
    if (spec.escape == EscapeStyle::kBackslash && c == '\\' &&
        (next == spec.quote || next == '\\')) {
      s.push_back(next);
      ++*i;
    } else if (c != spec.quote) {
      s.push_back(c);
    } else if (spec.escape == EscapeStyle::kDoubled && next == spec.quote) {
      s.push_back(c);
      ++*i;
    } else {
      return s;
    }
  }
  return Status::ParseError(
      StrFormat("unterminated string at offset %zu", start));
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view text, const LexSpec& spec) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < text.size() && IsWordChar(text[i])) ++i;
      std::string_view word = text.substr(tok.pos, i - tok.pos);
      tok.kind = TokenKind::kIdent;
      tok.text = std::string(word);
      for (std::string_view kw : spec.keywords) {
        if (EqualsIgnoreCase(word, kw)) {
          tok.kind = TokenKind::kKeyword;
          tok.text = std::string(kw);
          break;
        }
      }
    } else if (IsDigit(c)) {
      while (i < text.size() && IsDigit(text[i])) ++i;
      tok.kind = TokenKind::kInt;
      if (spec.floats && i + 1 < text.size() && text[i] == '.' &&
          IsDigit(text[i + 1])) {
        for (++i; i < text.size() && IsDigit(text[i]);) ++i;
        tok.kind = TokenKind::kFloat;
      }
      tok.text = std::string(text.substr(tok.pos, i - tok.pos));
    } else if (c == spec.quote) {
      auto s = LexString(text, &i, spec);
      if (!s.ok()) return s.status();
      tok.kind = TokenKind::kString;
      tok.text = std::move(s).value();
    } else {
      tok.kind = TokenKind::kSymbol;
      for (std::string_view op : spec.two_char_symbols) {
        if (text.substr(i, 2) == op) {
          tok.text = std::string(op);
          break;
        }
      }
      if (tok.text.empty()) {
        if (spec.one_char_symbols.find(c) == std::string_view::npos) {
          return Status::ParseError(
              StrFormat("unexpected character '%c' at offset %zu", c, i));
        }
        tok.text = std::string(1, c);
      }
      i += tok.text.size();
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.pos = text.size();
  tokens.push_back(std::move(end));
  return tokens;
}

std::string EscapeString(const LexSpec& spec, std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (spec.escape == EscapeStyle::kDoubled) {
      if (c == spec.quote) out.push_back(c);
    } else if (c == spec.quote) {
      out.push_back('\\');
    } else if (c == '\\' && (i + 1 == s.size() || s[i + 1] == spec.quote ||
                             s[i + 1] == '\\')) {
      // Only a backslash the lexer would read as an escape is doubled, so
      // a path like C:\tmp prints as written.
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

std::string QuoteString(const LexSpec& spec, std::string_view s) {
  return spec.quote + EscapeString(spec, s) + spec.quote;
}

std::string FormatFloat(double d) {
  // Fixed notation of any finite double (shortest round trip) fits.
  char buf[400];
  auto res = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::fixed);
  std::string out(buf, res.ptr);
  if (out.find('.') == std::string::npos) out += ".0";
  return out;
}

// ---------------------------------------------------------------- cursor

TokenCursor::TokenCursor(std::vector<Token> tokens)
    : tokens_(std::move(tokens)) {
  if (tokens_.empty() || tokens_.back().kind != TokenKind::kEnd) {
    tokens_.emplace_back();
  }
}

const Token& TokenCursor::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& TokenCursor::Next() {
  const Token& tok = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return tok;
}

bool TokenCursor::PeekKeyword(std::string_view kw, size_t ahead) const {
  return Peek(ahead).kind == TokenKind::kKeyword && Peek(ahead).text == kw;
}

bool TokenCursor::PeekSymbol(std::string_view sym, size_t ahead) const {
  return Peek(ahead).kind == TokenKind::kSymbol && Peek(ahead).text == sym;
}

bool TokenCursor::AcceptKeyword(std::string_view kw) {
  if (!PeekKeyword(kw)) return false;
  Next();
  return true;
}

bool TokenCursor::AcceptSymbol(std::string_view sym) {
  if (!PeekSymbol(sym)) return false;
  Next();
  return true;
}

Status TokenCursor::ExpectKeyword(std::string_view kw) {
  if (AcceptKeyword(kw)) return Status::OK();
  return Status::ParseError(StrFormat(
      "expected '%.*s' at offset %zu, got '%s'", static_cast<int>(kw.size()),
      kw.data(), Peek().pos, Peek().text.c_str()));
}

Status TokenCursor::ExpectSymbol(std::string_view sym) {
  if (AcceptSymbol(sym)) return Status::OK();
  return Status::ParseError(StrFormat(
      "expected '%.*s' at offset %zu, got '%s'", static_cast<int>(sym.size()),
      sym.data(), Peek().pos, Peek().text.c_str()));
}

Status TokenCursor::Err(std::string_view msg) const {
  return Status::ParseError(StrFormat("%.*s (at offset %zu)",
                                      static_cast<int>(msg.size()), msg.data(),
                                      Peek().pos));
}

Result<std::string> TokenCursor::Ident(std::string_view what) {
  if (!PeekKind(TokenKind::kIdent)) return Err("expected " + std::string(what));
  return Next().text;
}

Result<int64_t> TokenCursor::Int(std::string_view what, int64_t max) {
  if (!PeekKind(TokenKind::kInt)) return Err("expected " + std::string(what));
  const std::string& text = Peek().text;
  int64_t v = 0;
  auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc() || v > max) {
    return Err(std::string(what) + " out of range");
  }
  Next();
  return v;
}

Result<double> TokenCursor::Float(std::string_view what) {
  if (!PeekKind(TokenKind::kFloat)) return Err("expected " + std::string(what));
  const std::string& text = Peek().text;
  double v = 0.0;
  auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc()) {
    return Err(std::string(what) + " out of range");
  }
  Next();
  return v;
}

}  // namespace raptor
