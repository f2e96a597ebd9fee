#include "analysis/lint_format.h"

#include <cstdio>

namespace bcdb {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// The displayed class key: the template's α-renamed skeleton and its
/// IND-closed footprint, `<skeleton>#fp:<id>,<id>,...`.
std::string ClassKeyText(const LintedConstraint& c) {
  std::string key = c.skeleton + "#fp:";
  for (std::size_t i = 0; i < c.report.footprint.size(); ++i) {
    if (i > 0) key += ",";
    key += std::to_string(c.report.footprint[i]);
  }
  return key;
}

}  // namespace

std::string FormatConstraintText(std::string_view file,
                                 const LintedConstraint& c) {
  std::string out;
  const std::string location =
      std::string(file) + ":" + std::to_string(c.line) + ": ";
  for (const Diagnostic& diag : c.report.diagnostics) {
    out += location;
    out += SeverityToString(diag.severity);
    out += ": ";
    out += diag.message;
    out += " [";
    out += AnalysisCodeToString(diag.code);
    out += "]\n";
    if (diag.span.valid() && diag.span.offset < c.text.size()) {
      out += "  " + c.text + "\n";
      out += "  " + std::string(diag.span.offset, ' ') + "^";
      if (diag.span.length > 1) {
        out += std::string(diag.span.length - 1, '~');
      }
      out += "\n";
    }
  }
  // The class/monotonicity summary is meaningless for a constraint that
  // failed analysis — only print it for admissible constraints.
  if (c.report.ok()) {
    if (c.is_template) {
      out += location + "template (" + std::to_string(c.num_params) +
             (c.num_params == 1 ? " param" : " params") + "), class " +
             TractabilityClassToString(c.report.tractability) +
             (c.report.analysis.monotone ? ", monotone" : ", non-monotone") +
             (c.batchable ? ", batch-admitted" : ", per-member") + "\n";
      out += location + "class key: " + ClassKeyText(c) + "\n";
    } else {
      out += location + "class " +
             TractabilityClassToString(c.report.tractability) +
             (c.report.analysis.monotone ? ", monotone" : ", non-monotone") + "\n";
    }
  }
  return out;
}

namespace {

void AppendDiagnosticJson(const Diagnostic& diag, std::string& out) {
  out += "{\"severity\": \"";
  out += SeverityToString(diag.severity);
  out += "\", \"code\": \"";
  out += AnalysisCodeToString(diag.code);
  out += "\", \"message\": \"";
  out += JsonEscape(diag.message);
  out += "\"";
  if (diag.span.valid()) {
    out += ", \"offset\": " + std::to_string(diag.span.offset) +
           ", \"length\": " + std::to_string(diag.span.length);
  }
  out += "}";
}

void AppendConstraintJson(const LintedConstraint& c, std::string& out) {
  out += "    {\"line\": " + std::to_string(c.line) + ", \"text\": \"" +
         JsonEscape(c.text) + "\",\n     \"class\": \"";
  out += TractabilityClassToString(c.report.tractability);
  out += "\", \"monotone\": ";
  out += c.report.analysis.monotone ? "true" : "false";
  out += ", \"connected\": ";
  out += c.report.analysis.connected ? "true" : "false";
  if (c.is_template) {
    out += ", \"template\": true, \"params\": " + std::to_string(c.num_params) +
           ", \"batchable\": ";
    out += c.batchable ? "true" : "false";
    out += ", \"class_key\": \"" + JsonEscape(ClassKeyText(c)) + "\"";
  }
  out += ", \"footprint\": [";
  for (std::size_t i = 0; i < c.report.footprint.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(c.report.footprint[i]);
  }
  out += "],\n     \"diagnostics\": [";
  for (std::size_t i = 0; i < c.report.diagnostics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendDiagnosticJson(c.report.diagnostics[i], out);
  }
  out += "]}";
}

}  // namespace

std::string FormatFileJson(std::string_view file,
                           const std::vector<LintedConstraint>& constraints) {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const LintedConstraint& c : constraints) {
    errors += c.report.CountSeverity(Severity::kError);
    warnings += c.report.CountSeverity(Severity::kWarning);
  }
  std::string out = "{\"file\": \"" + JsonEscape(file) + "\", \"errors\": " +
                    std::to_string(errors) + ", \"warnings\": " +
                    std::to_string(warnings) + ",\n  \"constraints\": [\n";
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    AppendConstraintJson(constraints[i], out);
    out += i + 1 < constraints.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace bcdb
