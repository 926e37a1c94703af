#include "project_rules.h"

#include <algorithm>
#include <regex>
#include <set>

namespace ppdb::analyzer {
namespace {

/// Token `i` has text `text`; out-of-range indices (including `i - 1` at
/// the start, which wraps) are simply false.
bool Is(const std::vector<Token>& tokens, size_t i, const char* text) {
  return i < tokens.size() && tokens[i].text == text;
}

bool OneOf(const std::string& text, std::initializer_list<const char*> set) {
  return std::find(set.begin(), set.end(), text) != set.end();
}

/// A banned token shape; `matches` sees an identifier token at `i`. Scope:
/// src/ *.cc/*.h, or every file read when `src_only` is false, minus the
/// paths starting with an `exempt` prefix.
struct Ban {
  const char* check;
  bool silenceable;  // honours `// ppdb-lint: allow(<check>)`
  bool src_only;
  std::vector<std::string> exempt;
  bool (*matches)(const std::vector<Token>& tokens, size_t i);
  const char* message;
};

const std::vector<Ban>& Bans() {
  static const std::vector<Ban> bans = {
      {"std-sync", true, true, {"src/common/mutex.h"},
       [](const std::vector<Token>& t, size_t i) {
         return Is(t, i - 1, "::") && Is(t, i - 2, "std") &&
                OneOf(t[i].text,
                      {"mutex", "shared_mutex", "recursive_mutex",
                       "timed_mutex", "condition_variable", "lock_guard",
                       "unique_lock", "shared_lock", "scoped_lock"});
       },
       "raw std synchronization is invisible to -Wthread-safety; use the "
       "annotated wrappers in common/mutex.h"},
      {"system", true, true, {},
       [](const std::vector<Token>& t, size_t i) {
         return t[i].text == "system" && Is(t, i + 1, "(");
       },
       "no system(3) calls"},
      {"raw-new", true, true, {},
       [](const std::vector<Token>& t, size_t i) {
         return t[i].text == "new" &&
                (t[i + 1].kind == Token::Kind::kIdent || Is(t, i + 1, "::"));
       },
       "raw new; prefer std::make_unique"},
      {"nondet-source", true, true, {"src/common/rng.cc", "src/common/rng.h"},
       [](const std::vector<Token>& t, size_t i) {
         // Call sites only: `foo.time(...)` is not ::time.
         return t[i].text == "random_device" ||
                (OneOf(t[i].text, {"time", "rand", "srand"}) &&
                 Is(t, i + 1, "(") && !Is(t, i - 1, ".") &&
                 !Is(t, i - 1, "->"));
       },
       "nondeterministic source; all randomness flows through the seeded "
       "SplitMix64 (common/rng.h) so runs replay"},
      // Families registered in these files exist from startup.
      // check_metrics_docs.sh compares one scrape of a freshly started
      // server against OBSERVABILITY.md, so a family registered lazily
      // anywhere else is missing from that scrape and escapes the check.
      {"metric-reg", false, true,
       {"src/server/broker.cc", "src/server/net/conn_metrics.cc",
        "src/server/service.cc", "src/obs/metrics.cc", "src/obs/metrics.h",
        "src/storage/database_io.cc", "src/storage/fs.cc",
        "src/storage/journal.cc", "src/violation/incremental.cc",
        "src/violation/metrics.cc"},
       [](const std::vector<Token>& t, size_t i) {
         return OneOf(t[i].text, {"GetCounter", "GetGauge", "GetHistogram"}) &&
                Is(t, i + 1, "(");
       },
       "metric registration outside the eager-registration files escapes "
       "the metrics/docs drift check"},
      // SIMD stays behind the kernel's runtime dispatch, whose scalar
      // fallback keeps non-AVX2 hosts working.
      {"intrinsics", false, false, {"src/violation/kernel/"},
       [](const std::vector<Token>& t, size_t i) {
         return (EndsWith(t[i].text, "intrin") || t[i].text == "arm_neon") &&
                Is(t, i - 1, "<") && Is(t, i - 2, "include") &&
                Is(t, i - 3, "#") && Is(t, i + 1, ".") &&
                Is(t, i + 2, "h") && Is(t, i + 3, ">");
       },
       "SIMD intrinsics header outside src/violation/kernel/"},
  };
  return bans;
}

void CheckBan(const Ban& ban, const SourceFile& file,
              std::vector<Finding>* findings) {
  if (ban.src_only && !IsSrcFile(file.rel)) return;
  for (const std::string& prefix : ban.exempt) {
    if (StartsWith(file.rel, prefix)) return;
  }
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& token = file.tokens[i];
    if (token.kind != Token::Kind::kIdent || !ban.matches(file.tokens, i) ||
        (ban.silenceable &&
         HasAllowMarker(file.lines, token.line, ban.check))) {
      continue;
    }
    findings->push_back({ban.check, file.rel, token.line,
                         "'" + token.text + "': " + ban.message});
  }
}

void CheckGuardedBy(const SourceFile& file, std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = file.tokens;
  std::set<std::string> named;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (OneOf(tokens[i].text, {"PPDB_GUARDED_BY", "PPDB_REQUIRES",
                               "PPDB_REQUIRES_SHARED", "PPDB_EXCLUDES"}) &&
        tokens[i + 1].text == "(") {
      for (const std::string& arg : MacroArgs(tokens, i + 1)) {
        named.insert(arg);
      }
    }
  }
  for (const size_t n : MutexDeclNames(tokens)) {
    const Token& name = tokens[n];
    if (named.count(name.text) == 0 &&
        !HasAllowMarker(file.lines, name.line, "guarded-by")) {
      findings->push_back(
          {"guarded-by", file.rel, name.line,
           "no PPDB_GUARDED_BY/PPDB_REQUIRES/PPDB_EXCLUDES names '" +
               name.text + "' in this file"});
    }
  }
}

/// Command names are each `return "name"` (but "unknown") on the raw lines
/// of every block that opens on a line naming RequestKindName and closes
/// at the next line starting with '}'.
void CheckServeDocs(const std::vector<SourceFile>& files,
                    const std::string& root,
                    std::vector<Finding>* findings) {
  const std::string kRequest = "src/server/request.cc";
  const auto request = std::find_if(
      files.begin(), files.end(),
      [&](const SourceFile& file) { return file.rel == kRequest; });
  std::string readme, observability;  // a missing doc documents nothing
  ReadFile(root + "/README.md", &readme);
  ReadFile(root + "/OBSERVABILITY.md", &observability);
  const std::string docs = readme + "\n" + observability;
  const std::regex command_re("return \"([a-z_]+)\"");
  bool extracted = false;
  bool in_block = false;
  for (size_t n = 0; request != files.end() && n < request->lines.size();
       ++n) {
    const std::string& line = request->lines[n];
    if (in_block) {
      in_block = !StartsWith(line, "}");
    } else if (line.find("RequestKindName") != std::string::npos) {
      in_block = true;
    } else {
      continue;
    }
    for (std::sregex_iterator it(line.begin(), line.end(), command_re), end;
         it != end; ++it) {
      const std::string command = (*it)[1];
      if (command == "unknown") continue;
      extracted = true;
      if (!std::regex_search(docs, std::regex("\\b" + command + "\\b"))) {
        findings->push_back(
            {"serve-docs", kRequest, static_cast<int>(n + 1),
             "serve command \"" + command +
                 "\" is not mentioned in README.md or OBSERVABILITY.md"});
      }
    }
  }
  if (!extracted) {
    findings->push_back({"serve-docs", "", 0,
                         "could not extract command names from " + kRequest +
                             " RequestKindName"});
  }
}

}  // namespace

bool IsSrcFile(const std::string& rel) {
  return StartsWith(rel, "src/") &&
         (EndsWith(rel, ".cc") || EndsWith(rel, ".h"));
}

std::vector<Finding> AnalyzeProjectRules(const std::vector<SourceFile>& files,
                                         const std::string& root) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    for (const Ban& ban : Bans()) CheckBan(ban, file, &findings);
    if (IsSrcFile(file.rel) && file.rel != "src/common/mutex.h") {
      CheckGuardedBy(file, &findings);
    }
  }
  CheckServeDocs(files, root, &findings);
  return findings;
}

}  // namespace ppdb::analyzer
