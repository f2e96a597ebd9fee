#include "query/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

namespace bcdb {

namespace {

/// Where parsing failed: every error site reports its token's offset here.
struct ParseError {
  std::size_t offset = 0;

  Status At(std::size_t at, std::string message) {
    offset = at;
    return Status::InvalidArgument(std::move(message));
  }
};

enum class TokenKind {
  kIdent,
  kNumber,
  kString,
  kParam,   // $name (template placeholder)
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kArrow,   // :- or <-
  kPeriod,
  kOp,      // = != <> < > <= >=
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  std::size_t offset = 0;
};

class Lexer {
 public:
  Lexer(std::string_view input, ParseError& error)
      : input_(input), error_(error) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      const std::size_t start = pos_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        while (pos_ < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '_')) {
          ++pos_;
        }
        tokens.push_back({TokenKind::kIdent,
                          std::string(input_.substr(start, pos_ - start)),
                          start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && pos_ + 1 < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
        ++pos_;
        bool saw_dot = false;
        while (pos_ < input_.size() &&
               (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
                (!saw_dot && input_[pos_] == '.' && pos_ + 1 < input_.size() &&
                 std::isdigit(static_cast<unsigned char>(input_[pos_ + 1]))))) {
          if (input_[pos_] == '.') saw_dot = true;
          ++pos_;
        }
        tokens.push_back({TokenKind::kNumber,
                          std::string(input_.substr(start, pos_ - start)),
                          start});
        continue;
      }
      switch (c) {
        case '\'': {
          ++pos_;
          std::string text;
          while (pos_ < input_.size() && input_[pos_] != '\'') {
            text += input_[pos_++];
          }
          if (pos_ == input_.size()) {
            return error_.At(start, "unterminated string literal");
          }
          ++pos_;  // Closing quote.
          tokens.push_back({TokenKind::kString, std::move(text), start});
          break;
        }
        case '$': {
          ++pos_;
          const std::size_t name_start = pos_;
          while (pos_ < input_.size() &&
                 (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                  input_[pos_] == '_')) {
            ++pos_;
          }
          if (pos_ == name_start) {
            return error_.At(start,
                             "expected parameter name after '$' at offset " +
                                 std::to_string(start));
          }
          tokens.push_back(
              {TokenKind::kParam,
               std::string(input_.substr(name_start, pos_ - name_start)),
               start});
          break;
        }
        case '(':
          tokens.push_back({TokenKind::kLParen, "(", start});
          ++pos_;
          break;
        case ')':
          tokens.push_back({TokenKind::kRParen, ")", start});
          ++pos_;
          break;
        case '[':
          tokens.push_back({TokenKind::kLBracket, "[", start});
          ++pos_;
          break;
        case ']':
          tokens.push_back({TokenKind::kRBracket, "]", start});
          ++pos_;
          break;
        case ',':
          tokens.push_back({TokenKind::kComma, ",", start});
          ++pos_;
          break;
        case '.':
          tokens.push_back({TokenKind::kPeriod, ".", start});
          ++pos_;
          break;
        case ':':
          if (Peek(1) == '-') {
            tokens.push_back({TokenKind::kArrow, ":-", start});
            pos_ += 2;
          } else {
            return error_.At(start, "unexpected ':' at offset " +
                                        std::to_string(start));
          }
          break;
        case '<':
          if (Peek(1) == '-') {
            tokens.push_back({TokenKind::kArrow, "<-", start});
            pos_ += 2;
          } else if (Peek(1) == '=') {
            tokens.push_back({TokenKind::kOp, "<=", start});
            pos_ += 2;
          } else if (Peek(1) == '>') {
            tokens.push_back({TokenKind::kOp, "!=", start});
            pos_ += 2;
          } else {
            tokens.push_back({TokenKind::kOp, "<", start});
            ++pos_;
          }
          break;
        case '>':
          if (Peek(1) == '=') {
            tokens.push_back({TokenKind::kOp, ">=", start});
            pos_ += 2;
          } else {
            tokens.push_back({TokenKind::kOp, ">", start});
            ++pos_;
          }
          break;
        case '=':
          tokens.push_back({TokenKind::kOp, "=", start});
          ++pos_;
          break;
        case '!':
          if (Peek(1) == '=') {
            tokens.push_back({TokenKind::kOp, "!=", start});
            pos_ += 2;
          } else {
            return error_.At(start, "unexpected '!' at offset " +
                                        std::to_string(start));
          }
          break;
        default:
          return error_.At(start, std::string("unexpected character '") + c +
                                      "' at offset " + std::to_string(start));
      }
    }
    tokens.push_back({TokenKind::kEnd, "", input_.size()});
    return tokens;
  }

 private:
  char Peek(std::size_t ahead) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }

  std::string_view input_;
  ParseError& error_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, ParseError& error)
      : tokens_(std::move(tokens)), error_(error) {}

  StatusOr<DenialConstraint> Parse() {
    DenialConstraint q;
    const bool aggregate = Current().kind == TokenKind::kLBracket;
    if (aggregate) Advance();

    // Head: name '(' [aggfn '(' args ')'] ')'
    if (Current().kind != TokenKind::kIdent) {
      return Fail("expected query name");
    }
    q.name = Current().text;
    Advance();
    BCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    if (aggregate) {
      AggregateSpec spec;
      if (Current().kind != TokenKind::kIdent) {
        return Fail("expected aggregate function");
      }
      StatusOr<AggregateFunction> fn = ParseAggregateFunction();
      if (!fn.ok()) return fn.status();
      spec.fn = *fn;
      Advance();
      BCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
      while (Current().kind != TokenKind::kRParen) {
        StatusOr<Term> term = ParseTerm();
        if (!term.ok()) return term.status();
        spec.args.push_back(std::move(*term));
        if (Current().kind == TokenKind::kComma) Advance();
      }
      Advance();  // ')'
      q.aggregate = std::move(spec);
    } else {
      // Optional head variables: q(x, y) :- ... (answer-producing query).
      while (Current().kind != TokenKind::kRParen &&
             Current().kind != TokenKind::kEnd) {
        const std::size_t term_offset = Current().offset;
        StatusOr<Term> term = ParseTerm();
        if (!term.ok()) return term.status();
        if (!term->is_variable()) {
          return error_.At(term_offset, "head arguments must be variables");
        }
        q.head_vars.push_back(std::move(*term));
        if (Current().kind == TokenKind::kComma) Advance();
      }
    }
    BCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    BCDB_RETURN_IF_ERROR(Expect(TokenKind::kArrow, ":-"));

    // Body: comma-separated atoms / negated atoms / comparisons.
    for (;;) {
      BCDB_RETURN_IF_ERROR(ParseBodyElement(q));
      if (Current().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }

    if (aggregate) {
      BCDB_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "]"));
      if (Current().kind != TokenKind::kOp) {
        return Fail("expected comparison after ']'");
      }
      StatusOr<ComparisonOp> op = ParseOp();
      if (!op.ok()) return op.status();
      q.aggregate->op = *op;
      Advance();
      const std::size_t threshold_offset = Current().offset;
      StatusOr<Term> threshold = ParseTerm();
      if (!threshold.ok()) return threshold.status();
      if (threshold->is_variable()) {
        return error_.At(threshold_offset,
                         "aggregate threshold must be a constant");
      }
      if (threshold->is_param()) {
        q.aggregate->threshold_param = threshold->name();
      } else {
        q.aggregate->threshold = threshold->value();
      }
    }

    if (Current().kind == TokenKind::kPeriod) Advance();
    if (Current().kind != TokenKind::kEnd) {
      return Fail("unexpected trailing input: '" + Current().text + "'");
    }
    return q;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  /// An InvalidArgument error at the current token.
  Status Fail(std::string message) {
    return error_.At(Current().offset, std::move(message));
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Current().kind != kind) {
      return Fail("expected '" + std::string(what) + "', found '" +
                  Current().text + "'");
    }
    Advance();
    return Status::OK();
  }

  StatusOr<AggregateFunction> ParseAggregateFunction() {
    const std::string& name = Current().text;
    if (name == "count") return AggregateFunction::kCount;
    if (name == "cntd") return AggregateFunction::kCountDistinct;
    if (name == "sum") return AggregateFunction::kSum;
    if (name == "max") return AggregateFunction::kMax;
    if (name == "min") return AggregateFunction::kMin;
    return Fail("unknown aggregate function '" + name + "'");
  }

  StatusOr<ComparisonOp> ParseOp() {
    const std::string& text = Current().text;
    if (text == "=") return ComparisonOp::kEq;
    if (text == "!=") return ComparisonOp::kNe;
    if (text == "<") return ComparisonOp::kLt;
    if (text == ">") return ComparisonOp::kGt;
    if (text == "<=") return ComparisonOp::kLe;
    if (text == ">=") return ComparisonOp::kGe;
    return Fail("unknown comparison '" + text + "'");
  }

  StatusOr<Term> ParseTerm() {
    const Token& token = Current();
    switch (token.kind) {
      case TokenKind::kIdent: {
        Term term = Term::Var(token.text);
        Advance();
        return term;
      }
      case TokenKind::kString: {
        Term term = Term::Const(Value::Str(token.text));
        Advance();
        return term;
      }
      case TokenKind::kParam: {
        Term term = Term::Param(token.text);
        Advance();
        return term;
      }
      case TokenKind::kNumber: {
        const char* first = token.text.data();
        const char* last = first + token.text.size();
        const bool is_int = token.text.find('.') == std::string::npos;
        std::int64_t i = 0;
        double d = 0;
        if ((is_int ? std::from_chars(first, last, i).ec
                    : std::from_chars(first, last, d).ec) != std::errc()) {
          return Fail("numeric literal " + token.text + " at offset " +
                      std::to_string(token.offset) + " is out of range");
        }
        Advance();
        return Term::Const(is_int ? Value::Int(i) : Value::Real(d));
      }
      default:
        return Fail("expected term, found '" + token.text + "'");
    }
  }

  Status ParseBodyElement(DenialConstraint& q) {
    bool negated = false;
    if (Current().kind == TokenKind::kIdent && Current().text == "not") {
      negated = true;
      Advance();
    }
    // Lookahead: ident '(' => atom, otherwise comparison.
    if (Current().kind == TokenKind::kIdent &&
        tokens_[pos_ + 1].kind == TokenKind::kLParen) {
      Atom atom;
      atom.negated = negated;
      atom.relation = Current().text;
      Advance();
      Advance();  // '('
      while (Current().kind != TokenKind::kRParen) {
        StatusOr<Term> term = ParseTerm();
        if (!term.ok()) return term.status();
        atom.args.push_back(std::move(*term));
        if (Current().kind == TokenKind::kComma) Advance();
      }
      Advance();  // ')'
      (negated ? q.negated_atoms : q.positive_atoms).push_back(std::move(atom));
      return Status::OK();
    }
    if (negated) return Fail("'not' must be followed by an atom");
    Comparison cmp;
    StatusOr<Term> lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    cmp.lhs = std::move(*lhs);
    if (Current().kind != TokenKind::kOp) {
      return Fail("expected comparison operator, found '" + Current().text +
                  "'");
    }
    StatusOr<ComparisonOp> op = ParseOp();
    if (!op.ok()) return op.status();
    cmp.op = *op;
    Advance();
    StatusOr<Term> rhs = ParseTerm();
    if (!rhs.ok()) return rhs.status();
    cmp.rhs = std::move(*rhs);
    q.comparisons.push_back(std::move(cmp));
    return Status::OK();
  }

  std::vector<Token> tokens_;
  ParseError& error_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<DenialConstraint> ParseDenialConstraint(std::string_view text,
                                                 std::size_t* error_offset) {
  ParseError error;
  StatusOr<std::vector<Token>> tokens = Lexer(text, error).Tokenize();
  StatusOr<DenialConstraint> q =
      tokens.ok() ? Parser(std::move(*tokens), error).Parse()
                  : StatusOr<DenialConstraint>(tokens.status());
  if (!q.ok() && error_offset != nullptr) *error_offset = error.offset;
  return q;
}

}  // namespace bcdb
