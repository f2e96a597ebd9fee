// bcdb_lint — batch static analysis for denial-constraint files.
//
// Usage:
//   bcdb_lint --schema=examples/constraints/marketplace.schema file.dc ...
//   bcdb_lint --schema=bitcoin --format=json file.dc
//
// A .dc file is line-oriented: `#` starts a comment, every remaining
// non-empty line is one denial constraint in the parser's datalog-ish
// syntax. The exit code is the number of files containing at least one
// error-severity diagnostic (0 = everything clean), so the tool slots
// directly into CI.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/lint_format.h"
#include "analysis/schema_text.h"
#include "bitcoin/to_relational.h"
#include "query/template.h"
#include "relational/database.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --schema=<file|bitcoin> [--format=text|json] [--quiet] "
      "<constraints.dc> [more.dc ...]\n"
      "\n"
      "  --schema=FILE     schema description (relation/key/fd/ind lines)\n"
      "  --schema=bitcoin  the built-in Bitcoin TxOut/TxIn schema\n"
      "  --format=text     compiler-style diagnostics (default)\n"
      "  --format=json     one JSON document per file, for CI consumption\n"
      "  --quiet           errors and warnings only (text format)\n",
      argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

struct LintStats {
  std::size_t constraints = 0;
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

/// A `$` outside a string literal marks the line as a constraint template
/// ($name placeholders), linted class-level via AnalyzeTemplate.
bool LooksLikeTemplate(const std::string& text) {
  bool in_string = false;
  for (const char ch : text) {
    if (ch == '\'') {
      in_string = !in_string;
    } else if (ch == '$' && !in_string) {
      return true;
    }
  }
  return false;
}

/// Lints one .dc file against the schema; prints per the chosen format and
/// accumulates totals.
bool LintFile(const std::string& path, const bcdb::Database& db,
              const bcdb::ConstraintSet& constraints, bool json, bool quiet,
              LintStats& stats) {
  std::string text;
  if (!ReadFile(path, text)) {
    std::fprintf(stderr, "bcdb_lint: cannot read %s\n", path.c_str());
    return false;
  }
  std::vector<bcdb::LintedConstraint> linted;
  std::size_t line_number = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    bcdb::LintedConstraint c;
    c.text = line.substr(start, end - start + 1);
    c.line = line_number;
    if (LooksLikeTemplate(c.text)) {
      auto tmpl = bcdb::ConstraintTemplate::Parse(c.text);
      if (tmpl.ok()) {
        bcdb::AnalyzerOptions options;
        options.source_text = c.text;
        bcdb::TemplateAnalysis analysis =
            bcdb::AnalyzeTemplate(*tmpl, db, constraints, options);
        c.is_template = true;
        c.num_params = tmpl->num_params();
        c.batchable = analysis.batchable;
        c.skeleton = tmpl->CanonicalSkeleton();
        c.report = std::move(analysis.report);
      } else {
        // Syntactically broken template: the text analyzer's parse
        // diagnostic (with its span) is strictly better than a bare Status.
        c.report = bcdb::AnalyzeConstraintText(c.text, db, constraints);
      }
    } else {
      c.report = bcdb::AnalyzeConstraintText(c.text, db, constraints);
    }
    linted.push_back(std::move(c));
  }

  bool file_has_error = false;
  for (const bcdb::LintedConstraint& c : linted) {
    ++stats.constraints;
    const std::size_t errors = c.report.CountSeverity(bcdb::Severity::kError);
    stats.errors += errors;
    stats.warnings += c.report.CountSeverity(bcdb::Severity::kWarning);
    if (errors > 0) file_has_error = true;
  }

  if (json) {
    std::fputs(bcdb::FormatFileJson(path, linted).c_str(), stdout);
  } else {
    for (const bcdb::LintedConstraint& c : linted) {
      std::string rendered;
      if (quiet) {
        bcdb::LintedConstraint filtered = c;
        filtered.report.diagnostics.clear();
        for (const bcdb::Diagnostic& d : c.report.diagnostics) {
          if (d.severity != bcdb::Severity::kNote) {
            filtered.report.diagnostics.push_back(d);
          }
        }
        if (filtered.report.diagnostics.empty()) continue;
        rendered = bcdb::FormatConstraintText(path, filtered);
      } else {
        rendered = bcdb::FormatConstraintText(path, c);
      }
      std::fputs(rendered.c_str(), stdout);
    }
  }
  return !file_has_error;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schema_arg;
  bool json = false;
  bool quiet = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--schema=", 9) == 0) {
      schema_arg = arg + 9;
    } else if (std::strcmp(arg, "--format=json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--format=text") == 0) {
      json = false;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return Usage(argv[0]);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "bcdb_lint: unknown flag %s\n", arg);
      return Usage(argv[0]);
    } else {
      files.emplace_back(arg);
    }
  }
  if (schema_arg.empty() || files.empty()) return Usage(argv[0]);

  bcdb::Catalog catalog;
  bcdb::ConstraintSet constraints;
  if (schema_arg == "bitcoin") {
    catalog = bcdb::bitcoin::MakeBitcoinCatalog();
    auto built = bcdb::bitcoin::MakeBitcoinConstraints(catalog);
    if (!built.ok()) {
      std::fprintf(stderr, "bcdb_lint: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    constraints = *std::move(built);
  } else {
    std::string schema_text;
    if (!ReadFile(schema_arg, schema_text)) {
      std::fprintf(stderr, "bcdb_lint: cannot read schema %s\n",
                   schema_arg.c_str());
      return 2;
    }
    auto parsed = bcdb::ParseSchemaText(schema_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bcdb_lint: %s: %s\n", schema_arg.c_str(),
                   parsed.status().message().c_str());
      return 2;
    }
    catalog = std::move(parsed->catalog);
    constraints = std::move(parsed->constraints);
  }

  // An empty database over the catalog: lint analyses schema conformance and
  // classification; kTriviallyViolated only fires on a live database.
  bcdb::Database db(catalog);

  int failing_files = 0;
  LintStats stats;
  for (const std::string& file : files) {
    if (!LintFile(file, db, constraints, json, quiet, stats)) ++failing_files;
  }
  if (!json) {
    std::fprintf(stderr, "bcdb_lint: %zu constraints, %zu errors, %zu warnings\n",
                 stats.constraints, stats.errors, stats.warnings);
  }
  return failing_files;
}
