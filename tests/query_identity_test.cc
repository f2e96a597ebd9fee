// A query's identity is its syntax tree. The monitor's class key is a
// constant-free skeleton, so members that differ only in a constant (the
// aggregate threshold included) share a class but never a verdict, and a
// query's display text reads back to an equal query.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "query/parser.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::MakeRunningExample;
using Verdict = ConstraintMonitor::Verdict;

// U1Pk holds exactly 2.5 in R and receives nothing pending.
constexpr char kAtThreshold[] = "[q(sum(a)) :- TxOut(t, s, 'U1Pk', a)] >= 2.5";
constexpr char kAboveThreshold[] =
    "[q(sum(a)) :- TxOut(t, s, 'U1Pk', a)] >= 2.5000001";

Verdict AloneVerdict(const char* text) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto handle = monitor.Add("alone", text);
  EXPECT_TRUE(handle.ok()) << handle.status();
  EXPECT_TRUE(monitor.Poll().ok());
  return monitor.verdict(*handle);
}

TEST(QueryIdentityTest, MonitorThresholdsShareAClassButNotAVerdict) {
  EXPECT_EQ(AloneVerdict(kAtThreshold), Verdict::kHappened);
  EXPECT_EQ(AloneVerdict(kAboveThreshold), Verdict::kImpossible);
  for (bool at_first : {true, false}) {
    BlockchainDatabase db = MakeRunningExample();
    ConstraintMonitor monitor(&db);
    auto first =
        monitor.Add("first", at_first ? kAtThreshold : kAboveThreshold);
    auto second =
        monitor.Add("second", at_first ? kAboveThreshold : kAtThreshold);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(monitor.num_classes(), 1u);
    ASSERT_TRUE(monitor.Poll().ok());
    const MonitorHandle at = at_first ? *first : *second;
    const MonitorHandle above = at_first ? *second : *first;
    EXPECT_EQ(monitor.verdict(at), Verdict::kHappened) << at_first;
    EXPECT_EQ(monitor.verdict(above), Verdict::kImpossible) << at_first;
  }
}

TEST(QueryIdentityTest, DisplayTextOfTheExampleCorpusParsesBackEqual) {
  int round_trips = 0;
  for (const char* name : {"bad", "bitcoin", "marketplace", "templates"}) {
    std::ifstream in(std::string(BCDB_SOURCE_DIR) + "/examples/constraints/" +
                     name + ".dc");
    ASSERT_TRUE(in.good()) << name;
    std::string line;
    while (std::getline(in, line)) {
      StatusOr<DenialConstraint> q =
          ParseDenialConstraint(line.substr(0, line.find('#')));
      if (!q.ok()) continue;
      StatusOr<DenialConstraint> again = ParseDenialConstraint(q->ToString());
      ASSERT_TRUE(again.ok()) << q->ToString() << ": " << again.status();
      EXPECT_EQ(*again, *q) << line;
      ++round_trips;
    }
  }
  EXPECT_GE(round_trips, 15);
}

TEST(QueryIdentityTest, RealsPrintExactlyAndReadBack) {
  for (double d : {4.0000001, 0.1, 2.5, 4.0, -0.5, 1e20, 1.0 / 3}) {
    const std::string text = "q() :- R(" + Value::Real(d).ToString() + ")";
    StatusOr<DenialConstraint> q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status();
    const Value& read = q->positive_atoms[0].args[0].value();
    EXPECT_EQ(read.type(), ValueType::kReal) << text;
    EXPECT_EQ(read.AsReal(), d) << text;
  }
  EXPECT_EQ(Value::Real(4).ToString(), "4.0");
}

}  // namespace
}  // namespace bcdb
