#ifndef BCDB_ANALYSIS_LINT_FORMAT_H_
#define BCDB_ANALYSIS_LINT_FORMAT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"

namespace bcdb {

/// One constraint of a lint run: its source text, where it came from, and
/// the analyzer's verdict.
struct LintedConstraint {
  /// Source text of the constraint (one logical line of the .dc file).
  std::string text;
  /// 1-based line number in the linted file.
  std::size_t line = 0;
  AnalysisReport report;
  /// Template lines ($name placeholders) are analyzed class-level
  /// (AnalyzeTemplate): the report describes the whole template class, and
  /// the fields below carry its batchability and α-renamed skeleton.
  bool is_template = false;
  bool batchable = false;
  std::size_t num_params = 0;
  /// ConstraintTemplate::CanonicalSkeleton. The display prints it with the
  /// report's IND-closed footprint as the class key,
  /// `<skeleton>#fp:<ids>`, so an operator can see which constraints
  /// ConstraintMonitor::Add would put in one class.
  std::string skeleton;
};

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

/// compiler-style human-readable rendering of one linted constraint:
///
///   bad.dc:3: error: relation 'Txout' is not in the catalog [unknown-relation]
///     q() :- Txout(a, b)
///            ^~~~~
///   bad.dc:3: class conp-mixed, non-monotone
///
/// Diagnostics come first (with caret lines when they carry a span), then a
/// one-line summary of the derived facts.
std::string FormatConstraintText(std::string_view file,
                                 const LintedConstraint& c);

/// The whole lint run as one JSON document:
///
///   {"file": "...", "errors": N, "warnings": N,
///    "constraints": [{"line": 3, "text": "...", "class": "...",
///                     "monotone": true, "footprint": [0, 1],
///                     "diagnostics": [{"severity": "error", "code": "...",
///                                      "message": "...", "offset": 7,
///                                      "length": 5}, ...]}, ...]}
std::string FormatFileJson(std::string_view file,
                           const std::vector<LintedConstraint>& constraints);

}  // namespace bcdb

#endif  // BCDB_ANALYSIS_LINT_FORMAT_H_
