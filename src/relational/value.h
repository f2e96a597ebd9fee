#ifndef BCDB_RELATIONAL_VALUE_H_
#define BCDB_RELATIONAL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

namespace bcdb {

/// Runtime type of a Value / declared type of a schema attribute.
enum class ValueType {
  kNull = 0,
  kInt,
  kReal,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// A single relational value: NULL, 64-bit integer, double, or string.
///
/// Values are immutable, regular (copyable, equality-comparable, hashable,
/// totally ordered) so they can serve directly as hash-index keys. Numeric
/// values of different types (`kInt` vs `kReal`) compare by exact value, which
/// matches SQL comparison semantics; values of incomparable types order by
/// type tag so sorting is always well-defined.
///
/// To keep the order total for every representable double, `Real(NaN)` is
/// pinned to a defined position: all NaNs are equal to each other and sort
/// *after* every other numeric value (but still by numeric type tag against
/// non-numeric types). IEEE "NaN compares false with everything" semantics
/// would otherwise break the antisymmetry that hash-index buckets and
/// sorted outputs rely on.
class Value {
 public:
  /// Defaults to NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int(std::int64_t v) { return Value(Rep(std::in_place_index<1>, v)); }
  static Value Real(double v) { return Value(Rep(std::in_place_index<2>, v)); }
  static Value Str(std::string v) {
    return Value(Rep(std::in_place_index<3>, std::move(v)));
  }

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool IsNumeric() const {
    return type() == ValueType::kInt || type() == ValueType::kReal;
  }

  /// Requires type() == kInt.
  std::int64_t AsInt() const { return std::get<1>(rep_); }
  /// Requires type() == kReal.
  double AsReal() const { return std::get<2>(rep_); }
  /// Requires type() == kString.
  const std::string& AsString() const { return std::get<3>(rep_); }

  /// Numeric view of an int or real value. Requires IsNumeric().
  double AsNumeric() const {
    return type() == ValueType::kInt ? static_cast<double>(AsInt()) : AsReal();
  }

  /// Three-way comparison: negative / zero / positive. NULL sorts first and
  /// equals only NULL; cross-type numeric values compare by numeric value.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  std::size_t Hash() const;

  /// Display form: NULL, 42, 1.5, 4.0, 'text'. A finite real prints in the
  /// shortest fixed notation that reads back to the same double.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, std::int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace bcdb

#endif  // BCDB_RELATIONAL_VALUE_H_
