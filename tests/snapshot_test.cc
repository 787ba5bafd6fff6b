// ExplainPlanText coverage. Persistence goes through persist::Checkpointer
// (see persist_test.cc / recovery_test.cc).
#include <gtest/gtest.h>

#include <string>

#include "engine/explain.h"

namespace raptor {
namespace {

TEST(ExplainTest, RendersScheduledPlan) {
  auto explained = engine::ExplainPlanText(
      "proc p read file f as e1 "
      "proc p2[\"%tar%\"] write file f2[\"%out%\"] as e2 "
      "with e1 before e2 return p");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& s = explained.value();
  // The more-constrained pattern #2 is scheduled first.
  EXPECT_NE(s.find("1. pattern #2"), std::string::npos) << s;
  EXPECT_NE(s.find("2. pattern #1"), std::string::npos) << s;
  EXPECT_NE(s.find("relational backend"), std::string::npos);
  EXPECT_NE(s.find("1 temporal"), std::string::npos);
}

TEST(ExplainTest, PathPatternUsesGraphBackend) {
  auto explained = engine::ExplainPlanText(
      "proc p ~>(1~3)[read] file f[\"%x%\"] return p, f");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained.value().find("graph backend"), std::string::npos);
  EXPECT_NE(explained.value().find("MATCH"), std::string::npos);
}

TEST(ExplainTest, PropagatesParseErrors) {
  EXPECT_FALSE(engine::ExplainPlanText("not a query").ok());
}

}  // namespace
}  // namespace raptor
