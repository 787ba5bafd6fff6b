// Query text through the shared lexical layer (common/query_lexer.h).
//
// The corpus is every query text the system generates: each catalog
// template instantiated with and without IOC parameters, the synthesized
// TBQL of all 18 cases (basic and path patterns), each SQL/Cypher data
// query CompilePattern emits for them (with and without a propagated id
// constraint), and the giant SQL/Cypher baselines.
//
// QueryGoldenTest: every corpus entry parses to the AST printed in
// tests/fixtures/query_golden.txt, or fails with the error code recorded
// there. To regenerate the fixture, run this binary with
// QUERY_GOLDEN_OUT=<file> and copy <file> over it.
//
// QueryFuzzTest: seeded byte- and token-level mutations of the corpus,
// each parsed under all three dialects. Every parse returns OK or
// ParseError and never throws, and every OK parse prints to a fixed point
// of print -> parse. Runs under the ASan/UBSan CI job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cases/cases.h"
#include "common/rng.h"
#include "engine/compiler.h"
#include "huntlib/catalog.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/relational/sql_parser.h"
#include "synthesis/synthesizer.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"
#include "threatraptor.h"

namespace raptor {
namespace {

using service::QueryDialect;

struct CorpusEntry {
  std::string label;
  QueryDialect dialect = QueryDialect::kTbql;
  Result<std::string> text = std::string();  // a generation error, if any
};

/// Parse `text` under `dialect` and print the AST back.
Result<std::string> ParseAndPrint(QueryDialect dialect, std::string_view text) {
  switch (dialect) {
    case QueryDialect::kTbql: {
      auto q = tbql::ParseTbql(text);
      if (!q.ok()) return q.status();
      return q.value().ToString();
    }
    case QueryDialect::kCypher: {
      auto q = graphdb::ParseCypher(text);
      if (!q.ok()) return q.status();
      return q.value().ToString();
    }
    case QueryDialect::kSql: {
      auto q = sql::ParseSelect(text);
      if (!q.ok()) return q.status();
      return q.value().ToString();
    }
  }
  return Status::Internal("unknown dialect");
}

QueryDialect BackendDialect(engine::Backend backend) {
  return backend == engine::Backend::kGraph ? QueryDialect::kCypher
                                            : QueryDialect::kSql;
}

/// A TBQL text plus every data query the compiler emits for it.
void AddTbql(const std::string& label, const std::string& text,
             std::vector<CorpusEntry>* out) {
  out->push_back({label + "/tbql", QueryDialect::kTbql, text});
  auto query = tbql::ParseTbql(text);
  if (!query.ok()) return;
  auto aq = tbql::Analyze(query.value());
  if (!aq.ok()) return;
  const tbql::TbqlQuery& q = query.value();
  for (size_t i = 0; i < q.patterns.size(); ++i) {
    std::string plabel = label + "/pattern" + std::to_string(i);
    // Unconstrained, then with the subject bound to ids an earlier
    // pattern propagated (the scheduler's IN list).
    const engine::EntityConstraints none;
    const engine::EntityConstraints bound = {
        {q.patterns[i].subject.id, {3, 1, 2}}};
    for (const engine::EntityConstraints* constraints : {&none, &bound}) {
      auto dq = engine::CompilePattern(aq.value(), i, *constraints);
      std::string clabel = plabel + (constraints == &bound ? "/bound" : "");
      if (dq.ok()) {
        out->push_back({clabel, BackendDialect(dq.value().backend),
                        dq.value().text});
      } else {
        out->push_back({clabel, QueryDialect::kSql, dq.status()});
      }
    }
  }
  out->push_back({label + "/giant_sql", QueryDialect::kSql,
                  engine::CompileGiantSql(aq.value())});
  out->push_back({label + "/giant_cypher", QueryDialect::kCypher,
                  engine::CompileGiantCypher(aq.value())});
}

std::vector<CorpusEntry> BuildCorpus() {
  std::vector<CorpusEntry> corpus;
  const std::map<std::string, std::string> none;
  const std::map<std::string, std::string> params = {
      {"interpreter", "bash"},     {"proc", "tar"},
      {"file", "/etc/passwd"},     {"ip", "98.23.182.25"},
      {"archiver", "gzip"},
  };
  for (const huntlib::Technique& t : huntlib::AllTechniques()) {
    for (bool filled : {false, true}) {
      std::string label = "catalog/" + t.id + (filled ? "+params" : "");
      std::string text = huntlib::Instantiate(t, filled ? params : none);
      if (t.dialect == QueryDialect::kTbql) {
        AddTbql(label, text, &corpus);
      } else {
        corpus.push_back({label, t.dialect, text});
      }
    }
  }
  ThreatRaptor tr;
  synthesis::SynthesisOptions path_options;
  path_options.use_path_patterns = true;
  for (const cases::AttackCase& c : cases::AllCases()) {
    auto extraction = tr.ExtractBehaviorGraph(c.oscti_text);
    if (!extraction.ok()) {
      corpus.push_back({"case/" + c.id + "/tbql", QueryDialect::kTbql,
                        extraction.status()});
      continue;
    }
    for (bool path : {false, true}) {
      std::string label = "case/" + c.id + (path ? "/path" : "");
      synthesis::QuerySynthesizer synthesizer(
          path ? path_options : synthesis::SynthesisOptions());
      auto syn = synthesizer.Synthesize(extraction.value().graph);
      if (syn.ok()) {
        AddTbql(label, syn.value().tbql_text, &corpus);
      } else {
        corpus.push_back({label + "/tbql", QueryDialect::kTbql, syn.status()});
      }
    }
  }
  return corpus;
}

const std::vector<CorpusEntry>& Corpus() {
  static const std::vector<CorpusEntry>* corpus =
      new std::vector<CorpusEntry>(BuildCorpus());
  return *corpus;
}

/// The printed AST, or "!<code>" when generation or parsing failed.
std::string GoldenValue(const CorpusEntry& e) {
  if (!e.text.ok()) {
    return std::string("!") + Status::CodeName(e.text.status().code());
  }
  auto printed = ParseAndPrint(e.dialect, e.text.value());
  if (!printed.ok()) {
    return std::string("!") + Status::CodeName(printed.status().code());
  }
  return printed.value();
}

/// Fixture format: "### <label>" then the golden value's lines.
std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  std::string* current = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      current = &golden[line.substr(4)];
    } else if (current != nullptr) {
      if (!current->empty()) *current += '\n';
      *current += line;
    }
  }
  return golden;
}

std::string FixturePath() {
  std::string here = __FILE__;
  return here.substr(0, here.rfind('/')) + "/fixtures/query_golden.txt";
}

TEST(QueryGoldenTest, GeneratedTextParsesToRecordedAst) {
  const std::vector<CorpusEntry>& corpus = Corpus();
  // Every template twice and every case twice, with compiled patterns.
  ASSERT_GT(corpus.size(), 200u);
  if (const char* out_path = std::getenv("QUERY_GOLDEN_OUT")) {
    std::ofstream out(out_path);
    for (const CorpusEntry& e : corpus) {
      out << "### " << e.label << "\n" << GoldenValue(e) << "\n";
    }
  }
  std::map<std::string, std::string> golden = ReadGolden(FixturePath());
  ASSERT_FALSE(golden.empty()) << "missing fixture " << FixturePath();
  size_t compared = 0;
  for (const CorpusEntry& e : corpus) {
    SCOPED_TRACE(e.label);
    auto it = golden.find(e.label);
    if (it == golden.end()) {
      ADD_FAILURE() << "not in the fixture";
      continue;
    }
    EXPECT_EQ(GoldenValue(e), it->second)
        << "input: " << (e.text.ok() ? e.text.value() : "");
    ++compared;
  }
  EXPECT_EQ(compared, golden.size()) << "fixture entries no longer generated";
}

// ----------------------------------------------------------------- fuzzing

/// Hand-written seeds for grammar the generated corpus never prints.
const char* const kExtraSeeds[] = {
    "proc p[pid = 5 && (exename != \"a\\\"b\" || !\"%x%\")] read || !write "
    "file f[name not in (\"/a\", 7)] as e1[amount > 3] before 100 "
    "proc q ~>(2~5)[read] file g as e2 from 1 to 9 "
    "proc q ~>(~1) file h[\"C:\\x\\\\\"] "
    "with e1 before[1-5 min] e2, p.pid = q.pid return distinct p, f.name",
    "last 3 hours agentid = 1 proc p ->(2) file f at 5 return p",
    "MATCH (p:proc {pid: 5, x: 1.25})-[e:read*2..4]->(f), (f)-[*]->(:file) "
    "WHERE NOT p.x IN ['a\\'b', 2, NULL] AND (f.n CONTAINS 'c\\\\' OR "
    "f.n STARTS WITH 'd' OR f.n ENDS WITH 'e') AND p.a + 1 - 2 <> 3.5 "
    "AND (p.a = 1) = (f.n CONTAINS 'x') AND p.a - (p.b - 1) > 0 "
    "RETURN DISTINCT p.exename AS x, (p.a = 1), f LIMIT 10",
    "SELECT DISTINCT e.id AS i, s.name, * FROM events e, entities s "
    "JOIN entities o ON o.id = e.object WHERE (e.op = 'read' OR "
    "s.name NOT LIKE '%it''s%') AND e.amount + 1.5 >= 2 AND s.pid NOT IN "
    "(1, 2, NULL) AND NOT (e.id - 1 < 3) AND (e.id = 1) = (s.pid < 2) "
    "AND e.amount - (e.id + 1) >= 0 AND s.name LIKE ('a' + 'b') "
    "ORDER BY e.id DESC, s.name ASC LIMIT 5",
};

/// Fragments a mutation inserts: quotes and escapes, every operator and
/// keyword class, out-of-range and exponent-sized numbers.
const char* const kFragments[] = {
    "'", "\"", "\\", "\\\\", "''", "\\'", "\\\"", "%", "_", " ", "(", ")",
    "[", "]", "{", "}", ",", ".", "..", ":", "*", "-", "+", "=", "<>", "!=",
    "<=", ">=", "<", ">", "!", "~", "~>", "->", "&&", "||", "0", "7", "1.5",
    "1234567.25", "0.000001", "3000000000", "99999999999999999999",
    "9223372036854775807", "NOT", "IN", "AND", "OR", "LIKE", "NULL",
    "CONTAINS", "STARTS WITH", "ENDS WITH", "LIMIT", "ORDER BY", "DESC", "AS",
    "not", "in", "as", "with", "before", "after", "within", "last", "days",
    "sec", "from", "to", "at", "return", "distinct", "proc", "file", "ip",
    "x", "\n", "\t", "\x01", "\xff",
};

std::string Mutate(std::string text, Rng& rng) {
  size_t rounds = 1 + rng.Uniform(3);
  for (size_t r = 0; r < rounds; ++r) {
    size_t pos = text.empty() ? 0 : rng.Uniform(text.size() + 1);
    size_t len = 1 + rng.Uniform(8);
    switch (rng.Uniform(5)) {
      case 0:  // insert a fragment
        text.insert(pos, kFragments[rng.Uniform(std::size(kFragments))]);
        break;
      case 1:  // delete a span
        if (pos < text.size()) text.erase(pos, len);
        break;
      case 2:  // replace a byte
        if (pos < text.size()) text[pos] = static_cast<char>(rng.Uniform(256));
        break;
      case 3:  // duplicate a span
        if (pos < text.size()) text.insert(pos, text.substr(pos, len));
        break;
      default:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

void CheckParse(QueryDialect dialect, const std::string& text) {
  Result<std::string> first = Status::Internal("not run");
  try {
    first = ParseAndPrint(dialect, text);
  } catch (const std::exception& e) {
    FAIL() << "parse threw " << e.what() << " on: " << text;
  }
  if (!first.ok()) {
    ASSERT_EQ(first.status().code(), StatusCode::kParseError)
        << first.status().ToString() << " on: " << text;
    return;
  }
  auto second = ParseAndPrint(dialect, first.value());
  ASSERT_TRUE(second.ok()) << second.status().ToString()
                           << "\nprinted: " << first.value()
                           << "\nfrom: " << text;
  ASSERT_EQ(second.value(), first.value()) << "from: " << text;
}

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, ParsesAreErrorsOrPrintFixedPoints) {
  std::vector<std::string> seeds;
  for (const CorpusEntry& e : Corpus()) {
    if (e.text.ok()) seeds.push_back(e.text.value());
  }
  seeds.insert(seeds.end(), std::begin(kExtraSeeds), std::end(kExtraSeeds));
  for (const std::string& seed : seeds) {
    for (QueryDialect d :
         {QueryDialect::kTbql, QueryDialect::kCypher, QueryDialect::kSql}) {
      ASSERT_NO_FATAL_FAILURE(CheckParse(d, seed));
    }
  }
  Rng rng(GetParam());
  for (int trial = 0; trial < 1500; ++trial) {
    std::string text = Mutate(seeds[rng.Uniform(seeds.size())], rng);
    for (QueryDialect d :
         {QueryDialect::kTbql, QueryDialect::kCypher, QueryDialect::kSql}) {
      ASSERT_NO_FATAL_FAILURE(CheckParse(d, text));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace raptor
