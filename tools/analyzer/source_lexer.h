#ifndef PPDB_TOOLS_ANALYZER_SOURCE_LEXER_H_
#define PPDB_TOOLS_ANALYZER_SOURCE_LEXER_H_

#include <string>
#include <vector>

/// Minimal C++ lexing for `ppdb_analyze`. Deliberately not a compiler
/// front-end: the analyzer needs token streams with line numbers, blanked
/// comments/strings, and the `ppdb-lint: allow(...)` marker — nothing
/// that requires a real parse (no templates, no overload resolution). The
/// trade-off is documented in DESIGN.md: the passes work on conventions
/// the codebase already enforces (annotated wrappers, RAII lock guards,
/// PPDB_* macro declarations), so lexing is sufficient and the tool stays
/// dependency-free (no libclang).
namespace ppdb::analyzer {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 0;  // 1-based
};

/// One loaded source file, pre-processed for scanning.
struct SourceFile {
  std::string rel;                 // root-relative path, '/'-separated
  std::vector<std::string> lines;  // raw lines, for allow-marker lookups
  std::vector<Token> tokens;       // lexed from the blanked content
};

/// Replaces comments, string literals and char literals with spaces,
/// preserving length and newlines so token line numbers match the
/// original. Handles //, /* */, "...", '...' and raw string literals.
std::string BlankCommentsAndStrings(const std::string& source);

/// Splits on '\n' (keeps no terminators).
std::vector<std::string> SplitLines(const std::string& content);

/// Lexes blanked content. Identifiers, numbers, and punctuation; the
/// multi-character operators the analyzer cares about (`::`, `->`, `+=`,
/// `-=`) are single tokens.
std::vector<Token> Tokenize(const std::string& blanked);

bool StartsWith(const std::string& text, const std::string& prefix);
bool EndsWith(const std::string& text, const std::string& suffix);

/// "src/server/broker.cc" -> "src/server/broker.h"; other paths unchanged.
std::string PairedHeader(const std::string& rel);

/// Index of the token closing the `open_text` bracket at `open` (nesting
/// counted), or tokens.size() when unbalanced.
size_t MatchForward(const std::vector<Token>& tokens, size_t open,
                    const std::string& open_text,
                    const std::string& close_text);

/// Reads a whole file into `content`. Returns false when unreadable.
bool ReadFile(const std::string& path, std::string* content);

/// Reads and pre-processes one file. Returns false when unreadable.
bool LoadSourceFile(const std::string& path, const std::string& rel,
                    SourceFile* out);

/// True when `line_no` (1-based) carries `// ppdb-lint: allow(<check>)` on
/// the line itself or in the contiguous `//` comment block directly above
/// it. The repo's one parser of that marker: every rule silences through it.
bool HasAllowMarker(const std::vector<std::string>& lines, int line_no,
                    const std::string& check);

}  // namespace ppdb::analyzer

#endif  // PPDB_TOOLS_ANALYZER_SOURCE_LEXER_H_
