// bcdb_locklint — source-level lock-discipline checker.
//
// The thread-safety annotations (util/thread_annotations.h) only bite when
// the code actually uses the annotated wrappers; a raw std::mutex member
// slips past clang's analysis entirely because nothing marks it a
// capability. This linter closes that hole with three textual rules,
// applied to every .h/.cc/.cpp under the directories given on the command
// line (comments and string literals stripped first):
//
//   1. Raw synchronization primitives (std::mutex, std::shared_mutex,
//      std::recursive_mutex, std::condition_variable[_any], std::lock_guard,
//      std::unique_lock, std::scoped_lock, std::shared_lock) are forbidden
//      outside the wrapper implementation (util/mutex.h, util/mutex.cc,
//      util/thread_annotations.h).
//   2. Every `std::atomic` declaration must carry a BCDB_LOCK_FREE("...")
//      tag on the same or an adjacent line — intentionally lock-free state
//      must say so, with its protocol rationale, where it is declared.
//   3. Every bcdb `Mutex` member declaration must name its
//      LockRank on the same or an adjacent line — a lock with no place in
//      the hierarchy defeats the runtime order checker.
//
// A line whose trailing comment contains `locklint:allow-raw` is exempt
// from all three rules (the escape hatch for code that must talk about
// the primitives themselves).
//
// Usage: bcdb_locklint <dir-or-file>...   (exit 0 clean, 1 violations,
//                                          2 usage/IO error)

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

namespace {

struct Violation {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string detail;
};

/// Whether `path` implements the annotated wrappers themselves (the only
/// place raw primitives may live).
bool IsWrapperSource(const std::string& path) {
  auto ends_with = [&path](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return path.size() >= n &&
           path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends_with("util/mutex.h") || ends_with("util/mutex.cc") ||
         ends_with("util/thread_annotations.h");
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Replaces comments and string/char literals with spaces, preserving line
/// structure so the token rules below cannot fire inside either. Line
/// comments' text is captured separately (one entry per line) so the
/// `locklint:allow-raw` escape can be honored after stripping.
std::string StripCommentsAndStrings(const std::string& text,
                                    std::vector<std::string>* comments) {
  std::string out;
  out.reserve(text.size());
  std::string current_comment;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // Raw-string terminator, e.g. `)foo"`.
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      comments->push_back(current_comment);
      current_comment.clear();
      if (state == State::kLineComment) state = State::kCode;
      out += '\n';
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   !(i > 0 && IsIdentChar(text[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t paren = text.find('(', i + 2);
          if (paren == std::string::npos) {
            out += c;
            break;
          }
          raw_delim = ")" + text.substr(i + 2, paren - (i + 2)) + "\"";
          state = State::kRawString;
          for (std::size_t j = i; j <= paren; ++j) out += ' ';
          i = paren;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && !(i > 0 && IsIdentChar(text[i - 1]))) {
          // The ident check skips digit separators (1'000'000).
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        current_comment += c;
        out += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else {
          if (c == '"') state = State::kCode;
          out += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else {
          if (c == '\'') state = State::kCode;
          out += ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out += ' ';
          i += raw_delim.size() - 1;
        } else {
          out += ' ';
        }
        break;
    }
  }
  comments->push_back(current_comment);
  return out;
}

/// True if `line` contains `needle` ("std::mutex", "std::atomic", ...)
/// bounded by non-identifier characters: `xstd::mutex`, `std::mutexes`,
/// and `std::atomic_thread_fence` do not match.
bool ContainsQualified(const std::string& line, const std::string& needle) {
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    const bool before_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool after_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (before_ok && after_ok) return true;
    pos += needle.size();
  }
  return false;
}

/// True if `line` declares owning `std::atomic<...>` storage. References
/// and pointers (`std::atomic<T>&` parameters) are borrows of someone
/// else's tagged member and do not match.
bool IsAtomicDecl(const std::string& line) {
  std::size_t pos = 0;
  const std::string needle = "std::atomic";
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    const bool before_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    std::size_t end = pos + needle.size();
    if (end < line.size() && IsIdentChar(line[end])) {  // atomic_flag etc.
      pos = end;
      continue;
    }
    if (!before_ok) {
      pos = end;
      continue;
    }
    // Skip the template argument list, if present on this line.
    if (end < line.size() && line[end] == '<') {
      int depth = 0;
      while (end < line.size()) {
        if (line[end] == '<') ++depth;
        if (line[end] == '>' && --depth == 0) {
          ++end;
          break;
        }
        ++end;
      }
    }
    while (end < line.size() && (line[end] == ' ' || line[end] == '\t')) {
      ++end;
    }
    if (end < line.size() && (line[end] == '&' || line[end] == '*')) {
      pos = end;  // A borrow, not owning storage.
      continue;
    }
    return true;
  }
  return false;
}

/// Detects a bcdb `Mutex foo_` member/variable declaration: the wrapper
/// type name (optionally `bcdb::`-qualified) at a token boundary, followed
/// by whitespace and an identifier. Borrows
/// (`Mutex&`, `Mutex*`) do not match — the rank lives at the owning
/// declaration, not at every parameter that borrows the lock.
bool IsBcdbMutexDecl(const std::string& line) {
  const char* const type = "Mutex";
  const std::size_t n = std::strlen(type);
  std::size_t pos = 0;
  while ((pos = line.find(type, pos)) != std::string::npos) {
    const char before = pos > 0 ? line[pos - 1] : ' ';
    if (IsIdentChar(before)) {  // FooMutex, ...
      pos += n;
      continue;
    }
    if (before == ':') {  // Accept bcdb::Mutex; reject other qualifiers.
      const std::size_t q = line.rfind("bcdb::", pos);
      if (q == std::string::npos || q + 6 != pos) {
        pos += n;
        continue;
      }
    }
    std::size_t after = pos + n;
    if (after < line.size() && IsIdentChar(line[after])) {  // MutexLock
      pos += n;
      continue;
    }
    while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
      ++after;
    }
    if (after > pos + n && after < line.size() &&
        (std::isalpha(static_cast<unsigned char>(line[after])) ||
         line[after] == '_')) {
      return true;
    }
    pos += n;
  }
  return false;
}

void LintFile(const std::string& path, std::vector<Violation>* out) {
  std::ifstream in(path);
  if (!in) {
    out->push_back({path, 0, "io", "cannot open file"});
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<std::string> comments;
  const std::string stripped = StripCommentsAndStrings(buffer.str(), &comments);

  std::vector<std::string> lines;
  std::string line;
  std::istringstream stream(stripped);
  while (std::getline(stream, line)) lines.push_back(line);

  auto allowed = [&comments](std::size_t idx) {
    return idx < comments.size() &&
           comments[idx].find("locklint:allow-raw") != std::string::npos;
  };
  // Declarations wrap: accept the tag on the same line, the line before,
  // or the line after.
  auto near_find = [&lines](std::size_t idx, const char* needle) {
    if (lines[idx].find(needle) != std::string::npos) return true;
    if (idx > 0 && lines[idx - 1].find(needle) != std::string::npos) {
      return true;
    }
    return idx + 1 < lines.size() &&
           lines[idx + 1].find(needle) != std::string::npos;
  };

  if (IsWrapperSource(path)) return;  // The wrappers hold the raw pieces.
  static const char* kRawPrimitives[] = {
      "std::mutex",
      "std::shared_mutex",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::recursive_timed_mutex",
      "std::shared_timed_mutex",
      "std::condition_variable",
      "std::condition_variable_any",
      "std::lock_guard",
      "std::unique_lock",
      "std::scoped_lock",
      "std::shared_lock",
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (allowed(i)) continue;
    const std::string& l = lines[i];
    for (const char* prim : kRawPrimitives) {
      if (ContainsQualified(l, prim)) {
        out->push_back(
            {path, i + 1, "raw-primitive",
             std::string(prim) +
                 " outside util/mutex.h — use the annotated "
                 "bcdb::Mutex/MutexLock wrappers"});
        break;
      }
    }
    if (IsAtomicDecl(l) && !near_find(i, "BCDB_LOCK_FREE")) {
      out->push_back(
          {path, i + 1, "untagged-atomic",
           "std::atomic declaration without a BCDB_LOCK_FREE(\"...\") "
           "rationale tag"});
    }
    if (IsBcdbMutexDecl(l) && !near_find(i, "LockRank::")) {
      out->push_back(
          {path, i + 1, "unranked-mutex",
           "bcdb Mutex member without a LockRank — every lock "
           "must name its place in the hierarchy (DESIGN.md section 16)"});
    }
  }
}

bool HasSourceSuffix(const std::string& name) {
  for (const char* suffix : {".h", ".cc", ".cpp", ".hpp"}) {
    const std::size_t n = std::strlen(suffix);
    if (name.size() >= n &&
        name.compare(name.size() - n, n, suffix) == 0) {
      return true;
    }
  }
  return false;
}

void Walk(const std::string& path, std::vector<Violation>* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    out->push_back({path, 0, "io", "cannot stat path"});
    return;
  }
  if (S_ISREG(st.st_mode)) {
    if (HasSourceSuffix(path)) LintFile(path, out);
    return;
  }
  if (!S_ISDIR(st.st_mode)) return;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    out->push_back({path, 0, "io", "cannot open directory"});
    return;
  }
  std::vector<std::string> children;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    children.push_back(path + "/" + name);
  }
  ::closedir(dir);
  std::sort(children.begin(), children.end());  // Deterministic output.
  for (const std::string& child : children) Walk(child, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <dir-or-file>...\n", argv[0]);
    return 2;
  }
  std::vector<Violation> violations;
  for (int i = 1; i < argc; ++i) Walk(argv[i], &violations);
  bool io_error = false;
  for (const Violation& v : violations) {
    if (v.rule == "io") io_error = true;
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.detail.c_str());
  }
  if (io_error) return 2;
  if (!violations.empty()) {
    std::fprintf(stderr, "bcdb_locklint: %zu violation(s)\n",
                 violations.size());
    return 1;
  }
  return 0;
}
