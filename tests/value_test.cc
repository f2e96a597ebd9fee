#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "relational/value.h"

namespace bcdb {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
}

TEST(ValueTest, EqualitySameType) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_NE(Value::Str("a"), Value::Str("b"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value::Int(1), Value::Real(1.0));
  EXPECT_NE(Value::Int(1), Value::Real(1.5));
  // Equal values must hash equally (hash-index invariant).
  EXPECT_EQ(Value::Int(1).Hash(), Value::Real(1.0).Hash());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_GT(Value::Real(2.5), Value::Int(2));
  EXPECT_LT(Value::Str("abc"), Value::Str("abd"));
  // NULL sorts before everything.
  EXPECT_LT(Value::Null(), Value::Int(-100));
}

TEST(ValueTest, NumericVsStringOrdersByTypeTag) {
  EXPECT_LT(Value::Int(999), Value::Str("a"));
  EXPECT_NE(Value::Int(0), Value::Str("0"));
}

TEST(ValueTest, AsNumeric) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(0.5).AsNumeric(), 0.5);
  EXPECT_TRUE(Value::Int(1).IsNumeric());
  EXPECT_FALSE(Value::Str("1").IsNumeric());
  EXPECT_FALSE(Value::Null().IsNumeric());
}

TEST(ValueTest, IntAndRealCompareExactlyBeyondDoublePrecision) {
  // 2^53 + 1 has no double: converting it would round it onto 2^53.
  const std::int64_t above = (std::int64_t{1} << 53) + 1;
  const Value two_53 = Value::Real(9007199254740992.0);
  EXPECT_GT(Value::Int(above), two_53);
  EXPECT_LT(two_53, Value::Int(above));
  EXPECT_EQ(Value::Int(above - 1), two_53);
  EXPECT_LT(Value::Int(std::numeric_limits<std::int64_t>::max()),
            Value::Real(9223372036854775808.0));
  EXPECT_EQ(Value::Int(std::numeric_limits<std::int64_t>::min()),
            Value::Real(-9223372036854775808.0));
  EXPECT_LT(Value::Int(-3), Value::Real(-2.5));
  EXPECT_GT(Value::Int(-2), Value::Real(-2.5));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Str("x").ToString(), "'x'");
  EXPECT_EQ(Value::Real(0.5).ToString(), "0.5");
  EXPECT_EQ(Value::Real(4.0000001).ToString(), "4.0000001");
  EXPECT_EQ(Value::Real(4).ToString(), "4.0");
}

TEST(ValueTest, CompareIsAntisymmetric) {
  const Value values[] = {Value::Null(), Value::Int(1), Value::Real(1.5),
                          Value::Str("a")};
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueTest, NanComparesEqualToItself) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value::Real(nan).Compare(Value::Real(nan)), 0);
  EXPECT_EQ(Value::Real(nan).Compare(Value::Real(-nan)), 0);
  EXPECT_EQ(Value::Real(nan), Value::Real(nan));
  EXPECT_EQ(Value::Real(nan).Hash(), Value::Real(-nan).Hash());
}

TEST(ValueTest, NanSortsAfterAllOtherNumerics) {
  const Value nan = Value::Real(std::numeric_limits<double>::quiet_NaN());
  const Value inf = Value::Real(std::numeric_limits<double>::infinity());
  EXPECT_GT(nan, inf);
  EXPECT_GT(nan, Value::Int(std::numeric_limits<std::int64_t>::max()));
  EXPECT_GT(nan, Value::Real(1e308));
  EXPECT_GT(nan, Value::Null());
  // Type-tag ordering is unaffected: every numeric, NaN included, sorts
  // before every string.
  EXPECT_LT(nan, Value::Str(""));
}

TEST(ValueTest, CompareIsTotalWithNan) {
  // The pre-fix behaviour violated totality: NaN < x and x < NaN were both
  // false while NaN != x, so NaN-keyed containers misbehaved. Antisymmetry
  // over a set containing NaN pins the fix.
  const Value values[] = {
      Value::Null(),
      Value::Int(0),
      Value::Real(std::numeric_limits<double>::quiet_NaN()),
      Value::Real(-std::numeric_limits<double>::infinity()),
      Value::Real(std::numeric_limits<double>::infinity()),
      Value::Str("nan")};
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.ToString() << " vs " << b.ToString();
      for (const Value& c : values) {
        // Transitivity of <=.
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " <= " << b.ToString() << " <= "
              << c.ToString();
        }
      }
    }
  }
}

TEST(ValueTest, HugeRealHashDoesNotOverflowCast) {
  // Regression: hashing a real outside int64 range used to cast it to
  // int64 unguarded (UB). These only need to not trap under ubsan.
  (void)Value::Real(1e300).Hash();
  (void)Value::Real(-1e300).Hash();
  (void)Value::Real(std::numeric_limits<double>::infinity()).Hash();
  (void)Value::Real(9.3e18).Hash();
  // Integral reals inside int64 range still hash like their int twins.
  EXPECT_EQ(Value::Real(42.0).Hash(), Value::Int(42).Hash());
}

}  // namespace
}  // namespace bcdb
