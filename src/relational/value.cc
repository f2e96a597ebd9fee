#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>

#include "util/hash.h"

namespace bcdb {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kReal:
      return "REAL";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

/// Compares an int with a non-NaN real exactly: converting the int to double
/// would round above 2^53 and make, say, 2^53 + 1 equal to 2^53.0, which
/// Hash (integral reals hash as their int) and the ValuePool could not honour.
static int CompareIntReal(std::int64_t i, double d) {
  if (d < -9223372036854775808.0) return 1;
  if (d >= 9223372036854775808.0) return -1;
  const double whole = std::trunc(d);
  const auto whole_int = static_cast<std::int64_t>(whole);
  if (i != whole_int) return i < whole_int ? -1 : 1;
  return whole < d ? -1 : (whole > d ? 1 : 0);
}

int Value::Compare(const Value& other) const {
  const ValueType a = type();
  const ValueType b = other.type();
  // Cross-type numeric comparison: 1 == 1.0.
  if (IsNumeric() && other.IsNumeric()) {
    if (a == ValueType::kInt && b == ValueType::kInt) {
      const std::int64_t x = AsInt();
      const std::int64_t y = other.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = AsNumeric();
    const double y = other.AsNumeric();
    // Totality for NaN: all NaNs are equal, and greater than every other
    // numeric (ints can never be NaN).
    const bool x_nan = std::isnan(x);
    const bool y_nan = std::isnan(y);
    if (x_nan || y_nan) {
      if (x_nan && y_nan) return 0;
      return x_nan ? 1 : -1;
    }
    if (a == ValueType::kInt) return CompareIntReal(AsInt(), y);
    if (b == ValueType::kInt) return -CompareIntReal(other.AsInt(), x);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a != b) return a < b ? -1 : 1;
  switch (a) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // Unreachable: numeric handled above.
  }
}

std::size_t Value::Hash() const {
  std::size_t seed = static_cast<std::size_t>(type());
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      HashCombineValue(seed, AsInt());
      break;
    case ValueType::kReal: {
      // Hash integral reals like the equal int so that 1 == 1.0 implies
      // equal hashes (required because Compare treats them as equal). The
      // range guard keeps the double->int64 cast defined; out-of-range
      // reals can never equal an int anyway. All NaNs are Compare-equal,
      // so they share one fixed hash.
      const double d = AsReal();
      if (std::isnan(d)) {
        HashCombineValue(seed, std::numeric_limits<double>::quiet_NaN());
        break;
      }
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
        const auto as_int = static_cast<std::int64_t>(d);
        if (static_cast<double>(as_int) == d) {
          seed = static_cast<std::size_t>(ValueType::kInt);
          HashCombineValue(seed, as_int);
          break;
        }
      }
      HashCombineValue(seed, d);
      break;
    }
    case ValueType::kString:
      HashCombineValue(seed, AsString());
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kReal: {
      // The shortest fixed-notation text that reads back to the same double
      // (the parser knows no exponents; the longest, a subnormal, is 327
      // chars). An integral real keeps a ".0" so it reads back as a real.
      char text[400] = {};
      const double d = AsReal();
      std::string result(text, std::to_chars(text, text + sizeof(text), d,
                                             std::chars_format::fixed)
                                   .ptr);
      if (std::isfinite(d) && result.find('.') == std::string::npos) {
        result += ".0";
      }
      return result;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace bcdb
