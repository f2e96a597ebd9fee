#ifndef BCDB_QUERY_PARSER_H_
#define BCDB_QUERY_PARSER_H_

#include <cstddef>
#include <string_view>

#include "query/ast.h"
#include "util/status.h"

namespace bcdb {

/// Parses the datalog-ish denial-constraint syntax used in the paper:
///
///   q() :- TxOut(ntx, s, 'U8Pk', a)
///   q() :- TxIn(pt, ps, 'AlcPK', a, ntx, 'AlcSig'), not Trusted(pk), a > 0
///   [q(sum(a)) :- TxOut(ntx, s, 'X', a)] > 5
///
/// Terms: bare identifiers are variables, single-quoted strings and numeric
/// literals are constants. A numeric literal without a '.' is a 64-bit int,
/// one with a '.' a double (fixed notation, no exponent); a literal outside
/// its type's range is an InvalidArgument error. Atoms prefixed with `not`
/// are negated. Comparisons use =, !=, <>, <, >, <=, >=. `<-` is accepted
/// for `:-` and a trailing period is optional. Aggregate functions: count,
/// cntd, sum, max, min.
///
/// Every error is InvalidArgument; `*error_offset`, when non-null, then
/// receives the byte offset of the offending token, or `text.size()` when
/// the text ends too early.
StatusOr<DenialConstraint> ParseDenialConstraint(
    std::string_view text, std::size_t* error_offset = nullptr);

}  // namespace bcdb

#endif  // BCDB_QUERY_PARSER_H_
