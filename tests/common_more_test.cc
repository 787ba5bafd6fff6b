#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "nlp/wordvec.h"
#include "storage/relational/value.h"

namespace raptor {
namespace {

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(TrimView("  x  "), "x");
  EXPECT_EQ(TrimView("\t\n"), "");
  EXPECT_EQ(ToLower("AbC/9"), "abc/9");
}

TEST(StringsTest, ReplaceAllAndParse) {
  EXPECT_EQ(ReplaceAll("a%%b", "%", "%%"), "a%%%%b");
  EXPECT_EQ(ReplaceAll("xyx", "x", "yy"), "yyyyy");  // non-overlapping scan
  long long v = 0;
  EXPECT_TRUE(ParseInt64("  -42 ", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_EQ(StrFormat("%s=%d", "k", 7), "k=7");
}

TEST(RngTest, DeterministicAndRanged) {
  Rng a(9), b(9), c(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  EXPECT_NE(Rng(9).Next(), c.Next());
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(Rng(3).Identifier(8).size(), 8u);
}

TEST(TablePrinterTest, AlignsAndPadsRows) {
  TablePrinter t({"a", "long header"});
  t.AddRow({"xxxx"});  // short row padded
  t.AddRow({"y", "z"});
  std::string s = t.ToString();
  // Header, separator, two rows.
  EXPECT_EQ(Split(s, '\n').size(), 5u);  // incl. trailing empty
  EXPECT_NE(s.find("| a    | long header |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(FormatPercent(0.9674), "96.74%");
  EXPECT_EQ(FormatSeconds(1.234), "1.23");
}

TEST(ValueTest, CoercionsAndComparisons) {
  using sql::Value;
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).AsDouble(), 5.0);
  EXPECT_EQ(Value(2.5).AsInt(), 2);
  EXPECT_EQ(Value("x").AsText(), "x");
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);      // NULL first
  EXPECT_LT(Value(int64_t{1}).Compare(Value("a")), 0);   // numbers < text
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);   // cross-numeric
  EXPECT_GT(Value("b").Compare(Value("a")), 0);
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value().ToString(), "NULL");
}

TEST(WordVecTest, NormalizedAndDeterministic) {
  nlp::WordVec v = nlp::EmbedWord("/bin/tar");
  double norm = 0;
  for (float x : v) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
  EXPECT_EQ(nlp::EmbedWord("/bin/tar"), nlp::EmbedWord("/bin/tar"));
  // Cosine is symmetric and bounded.
  double ab = nlp::WordSimilarity("alpha", "beta");
  EXPECT_NEAR(ab, nlp::WordSimilarity("beta", "alpha"), 1e-9);
  EXPECT_LE(ab, 1.0 + 1e-9);
  EXPECT_GE(ab, -1.0 - 1e-9);
  // Empty strings embed to the zero vector.
  nlp::WordVec zero = nlp::EmbedWord("");
  double z = 0;
  for (float x : zero) z += std::abs(x);
  EXPECT_LT(z, 1.0);  // "^$" bigram only; tiny mass
}

}  // namespace
}  // namespace raptor
