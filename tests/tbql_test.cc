#include <gtest/gtest.h>

#include "tbql/analyzer.h"
#include "tbql/ast.h"
#include "tbql/parser.h"

namespace raptor::tbql {
namespace {

TEST(TbqlParserTest, Fig2QueryParses) {
  const char* kFig2 =
      "proc p1[\"%/bin/tar%\"] read file f1[\"%/etc/passwd%\"] as evt1\n"
      "proc p1 write file f2[\"%/tmp/upload.tar%\"] as evt2\n"
      "proc p2[\"%/bin/bzip2%\"] read file f2 as evt3\n"
      "proc p2 write file f3[\"%/tmp/upload.tar.bz2%\"] as evt4\n"
      "proc p3[\"%/usr/bin/gpg%\"] read file f3 as evt5\n"
      "proc p3 write file f4[\"%/tmp/upload%\"] as evt6\n"
      "proc p4[\"%/usr/bin/curl%\"] read file f4 as evt7\n"
      "proc p4 connect ip i1[\"192.168.29.128\"] as evt8\n"
      "with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 "
      "before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8\n"
      "return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1";
  auto q = ParseTbql(kFig2);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().patterns.size(), 8u);
  EXPECT_EQ(q.value().temporal_rels.size(), 7u);
  EXPECT_EQ(q.value().returns.size(), 9u);
  EXPECT_TRUE(q.value().distinct);

  auto analyzed = Analyze(q.value());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed.value().entities.size(), 9u);
  // Default attribute inference (syntactic sugar).
  EXPECT_EQ(analyzed.value().returns[0].attr, "exename");
  EXPECT_EQ(analyzed.value().returns[1].attr, "name");
  EXPECT_EQ(analyzed.value().returns[8].attr, "dstip");
}

TEST(TbqlParserTest, OperationExpressions) {
  auto q = ParseTbql(
      "proc p[pid = 1 && exename = \"%chrome%\"] read || write file f "
      "return p, f");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Pattern& p = q.value().patterns[0];
  ASSERT_NE(p.op, nullptr);
  EXPECT_TRUE(p.op->Matches("read"));
  EXPECT_TRUE(p.op->Matches("write"));
  EXPECT_FALSE(p.op->Matches("execute"));
}

TEST(TbqlParserTest, NegatedOperation) {
  auto q = ParseTbql("proc p !read file f return p");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(q.value().patterns[0].op->Matches("read"));
  EXPECT_TRUE(q.value().patterns[0].op->Matches("write"));
}

TEST(TbqlParserTest, PathPatternVariants) {
  struct Case {
    const char* text;
    bool fuzzy;
    int min, max;
  };
  const Case kCases[] = {
      {"proc p ~>[read] file f return p, f", true, 1, -1},
      {"proc p ~>(2~4)[read] file f return p, f", true, 2, 4},
      {"proc p ~>(2~)[read] file f return p, f", true, 2, -1},
      {"proc p ~>(~4)[read] file f return p, f", true, 1, 4},
      {"proc p ->[read] file f return p, f", false, 1, 1},
      {"proc p ~> file f return p, f", true, 1, -1},
  };
  for (const Case& c : kCases) {
    auto q = ParseTbql(c.text);
    ASSERT_TRUE(q.ok()) << c.text << ": " << q.status().ToString();
    const PathSpec& path = q.value().patterns[0].path;
    EXPECT_TRUE(path.is_path) << c.text;
    EXPECT_EQ(path.fuzzy_arrow, c.fuzzy) << c.text;
    EXPECT_EQ(path.min_len, c.min) << c.text;
    EXPECT_EQ(path.max_len, c.max) << c.text;
  }
}

TEST(TbqlParserTest, WindowsAndGlobalFilters) {
  auto q = ParseTbql(
      "from 100 to 200 proc p read file f from 120 to 180 return p");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().global_windows.size(), 1u);
  EXPECT_EQ(q.value().global_windows[0].from, 100);
  ASSERT_TRUE(q.value().patterns[0].window.has_value());
  EXPECT_EQ(q.value().patterns[0].window->to, 180);

  auto q2 = ParseTbql("last 5 min proc p read file f return p");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2.value().global_windows[0].kind, WindowKind::kLast);
  EXPECT_EQ(q2.value().global_windows[0].last_amount, 5LL * 60 * 1000000);
}

TEST(TbqlParserTest, TemporalGapBounds) {
  auto q = ParseTbql(
      "proc p read file f as e1 proc p write file g as e2 "
      "with e1 before[0-5 min] e2 return p");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().temporal_rels.size(), 1u);
  EXPECT_EQ(q.value().temporal_rels[0].min_gap, 0);
  EXPECT_EQ(q.value().temporal_rels[0].max_gap, 5LL * 60 * 1000000);
}

TEST(TbqlParserTest, AttributeRelationship) {
  auto q = ParseTbql(
      "proc p1 read file f as e1 proc p2 write file g as e2 "
      "with p1.pid = p2.pid return p1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().attr_rels.size(), 1u);
  EXPECT_EQ(q.value().attr_rels[0].left_qualifier, "p1");
  EXPECT_EQ(q.value().attr_rels[0].right_attr, "pid");
}

TEST(TbqlParserTest, InListFilter) {
  auto q = ParseTbql(
      "proc p[exename in (\"/bin/sh\", \"/bin/bash\")] read file "
      "f[name not in (\"/dev/null\")] return p, f");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const EntityRef& s = q.value().patterns[0].subject;
  EXPECT_EQ(s.filter->kind, AttrExprKind::kInList);
  EXPECT_EQ(s.filter->values.size(), 2u);
  EXPECT_TRUE(q.value().patterns[0].object.filter->negated);
}

TEST(TbqlParserTest, ParseErrors) {
  EXPECT_FALSE(ParseTbql("").ok());
  EXPECT_FALSE(ParseTbql("return p").ok());
  EXPECT_FALSE(ParseTbql("proc p read file f").ok());  // missing return
  EXPECT_FALSE(ParseTbql("proc p frobnicate file f return p").ok());
  EXPECT_FALSE(ParseTbql("widget w read file f return w").ok());
  EXPECT_FALSE(ParseTbql("proc p read file f return p extra").ok());
  EXPECT_FALSE(ParseTbql("proc p[\"unterminated] read file f return p").ok());
}

TEST(TbqlParserTest, OutOfRangeNumbersAreParseErrors) {
  // Each number is range-checked against its destination: int64
  // timestamps and values, int path lengths, and time spans whose
  // microsecond product must fit a timestamp.
  for (const char* text : {
           "last 99999999999999999999 sec proc p read file f return p",
           "last 9223372036854775807 days proc p read file f return p",
           "from 0 to 99999999999999999999 proc p read file f return p",
           "proc p ~>(1~3000000000) file f return p",
           "proc p[pid = 99999999999999999999] read file f return p",
           "proc p read file f as e1 proc p write file g as e2 "
           "with e1 before[0-9223372036854775807 days] e2 return p",
       }) {
    SCOPED_TRACE(text);
    auto q = ParseTbql(text);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  }
  // The largest values that fit still parse.
  auto last = ParseTbql("last 106751 days proc p read file f return p");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value().global_windows[0].last_amount,
            106751LL * 86400 * 1000000);
  auto path = ParseTbql("proc p ~>(1~2147483647) file f return p");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path.value().patterns[0].path.max_len, 2147483647);
}

TEST(TbqlParserTest, StringEscapesRoundTrip) {
  // \" and \\ are escapes; any other backslash is literal.
  auto q = ParseTbql(
      "proc p[\"%a\\\"b%\"] read file f[\"C:\\tmp\\\\\"] return p");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().patterns[0].subject.filter->value, "%a\"b%");
  EXPECT_EQ(q.value().patterns[0].object.filter->value, "C:\\tmp\\");
  std::string printed = q.value().ToString();
  EXPECT_NE(printed.find("p[\"%a\\\"b%\"]"), std::string::npos) << printed;
  auto again = ParseTbql(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << printed;
  EXPECT_EQ(again.value().ToString(), printed);
}

TEST(TbqlParserTest, SubSecondSpansPrintExactly) {
  // Whole seconds print in sec, anything finer in us: the printed query
  // (which hunt dedupe keys are made of) keeps the exact spans.
  auto q = ParseTbql(
      "last 1500 ms proc p read file f as e1 proc p write file g as e2 "
      "with e1 before[0-500 ms] e2, e1 after[1-2 min] e2 return p");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::string printed = q.value().ToString();
  EXPECT_NE(printed.find("last 1500000 us"), std::string::npos) << printed;
  EXPECT_NE(printed.find("before[0-500000 us]"), std::string::npos) << printed;
  EXPECT_NE(printed.find("after[60-120 sec]"), std::string::npos) << printed;
  auto again = ParseTbql(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().global_windows[0].last_amount, 1500000);
  EXPECT_EQ(again.value().temporal_rels[0].max_gap, 500000);
}

TEST(TbqlAnalyzerTest, SubjectMustBeProcess) {
  auto q = ParseTbql("file f read file g return f");
  ASSERT_TRUE(q.ok());
  auto analyzed = Analyze(q.value());
  EXPECT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kTypeError);
}

TEST(TbqlAnalyzerTest, EntityIdReuseTypeConflict) {
  auto q = ParseTbql("proc x read file f proc p write file x return p");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(q.value()).ok());
}

TEST(TbqlAnalyzerTest, EntityIdReuseMergesFilters) {
  auto q = ParseTbql(
      "proc p[\"%tar%\"] read file f as e1 proc p[pid = 5] write file g "
      "as e2 return p");
  ASSERT_TRUE(q.ok());
  auto analyzed = Analyze(q.value());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed.value().entities.at("p").filters.size(), 2u);
}

TEST(TbqlAnalyzerTest, UnknownIdsRejected) {
  auto q1 = ParseTbql("proc p read file f as e1 with e1 before e9 return p");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(Analyze(q1.value()).ok());

  auto q2 = ParseTbql("proc p read file f return q");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(Analyze(q2.value()).ok());
}

TEST(TbqlAnalyzerTest, InvalidAttributeForType) {
  auto q = ParseTbql("proc p[dstip = \"1.2.3.4\"] read file f return p");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(q.value()).ok());
}

TEST(TbqlAnalyzerTest, DuplicatePatternIdRejected) {
  auto q = ParseTbql(
      "proc p read file f as e1 proc p write file g as e1 return p");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(q.value()).ok());
}

TEST(TbqlAnalyzerTest, TemporalRelOnMultiHopPathRejected) {
  auto q = ParseTbql(
      "proc p ~>(1~3)[read] file f as e1 proc p write file g as e2 "
      "with e1 before e2 return p");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(q.value()).ok());
}

TEST(TbqlAnalyzerTest, TemporalRelOnLength1PathAllowed) {
  auto q = ParseTbql(
      "proc p ->[read] file f as e1 proc p ->[write] file g as e2 "
      "with e1 before e2 return p");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(Analyze(q.value()).ok());
}

// Property: ToString round-trips through the parser for a family of
// queries covering the grammar.
class TbqlRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TbqlRoundTripTest, PrintParsePrintIsStable) {
  auto q1 = ParseTbql(GetParam());
  ASSERT_TRUE(q1.ok()) << GetParam() << ": " << q1.status().ToString();
  std::string printed1 = q1.value().ToString();
  auto q2 = ParseTbql(printed1);
  ASSERT_TRUE(q2.ok()) << printed1 << ": " << q2.status().ToString();
  EXPECT_EQ(printed1, q2.value().ToString());
  EXPECT_TRUE(Analyze(q2.value()).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, TbqlRoundTripTest,
    ::testing::Values(
        "proc p read file f return p",
        "proc p1[\"%/bin/tar%\"] read file f1[\"%/etc/passwd%\"] as evt1 "
        "return distinct p1, f1",
        "proc p read || write file f[name != \"/dev/null\"] return p.pid, f",
        "proc p !read file f return p",
        "proc p ~>(2~4)[read] file f return p, f",
        "proc p ->[execute] file f as e1 return e1.start_time",
        "proc p connect ip i[dstport = 443] return p, i.dstip, i.dstport",
        "proc p read file f as e1 proc p write file g as e2 with e1 "
        "before[0-5 min] e2, p.pid = p.pid return p",
        "from 0 to 1000000 proc p read file f return p",
        "last 2 hour proc p read file f at 500 return p",
        "proc p[exename in (\"/bin/sh\", \"/bin/bash\") && pid > 100] read "
        "file f return p"));

}  // namespace
}  // namespace raptor::tbql
