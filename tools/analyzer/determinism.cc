#include "determinism.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace ppdb::analyzer {
namespace {

/// fp-accumulate scope: src/violation/ minus the blessed reduction
/// helpers, whose pairwise/blocked sums *define* the canonical answer.
bool InFpScope(const std::string& rel) {
  if (!StartsWith(rel, "src/violation/")) return false;
  if (rel == "src/violation/analysis_core.h") return false;
  if (StartsWith(rel, "src/violation/kernel/")) return false;
  return true;
}

/// unordered-iter scope: the violation pipeline and the serving layer that
/// feeds it.
bool InUnorderedScope(const std::string& rel) {
  return StartsWith(rel, "src/violation/") || StartsWith(rel, "src/server/");
}

/// Token-index ranges of loop bodies (for/while/do), including braceless
/// single-statement bodies.
struct LoopBody {
  size_t begin = 0;  // first body token
  size_t end = 0;    // one past the last body token
  size_t header_begin = 0;  // 'for'/'while' token (for range-for parsing)
  size_t header_end = 0;    // ')' closing the loop header, or header_begin
};

std::vector<LoopBody> FindLoopBodies(const std::vector<Token>& tokens) {
  std::vector<LoopBody> bodies;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Token::Kind::kIdent) continue;
    if (token.text == "for" || token.text == "while") {
      if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
      const size_t close = MatchForward(tokens, i + 1, "(", ")");
      if (close >= tokens.size()) continue;
      LoopBody body;
      body.header_begin = i;
      body.header_end = close;
      if (close + 1 < tokens.size() && tokens[close + 1].text == "{") {
        body.begin = close + 2;
        body.end = MatchForward(tokens, close + 1, "{", "}");
      } else {
        body.begin = close + 1;
        size_t j = close + 1;
        int paren = 0, brace = 0;
        while (j < tokens.size()) {
          const std::string& text = tokens[j].text;
          if (text == "(") ++paren;
          if (text == ")") --paren;
          if (text == "{") ++brace;
          if (text == "}") --brace;
          if (text == ";" && paren == 0 && brace == 0) break;
          ++j;
        }
        body.end = j;
      }
      bodies.push_back(body);
    } else if (token.text == "do" && i + 1 < tokens.size() &&
               tokens[i + 1].text == "{") {
      LoopBody body;
      body.header_begin = i;
      body.header_end = i;
      body.begin = i + 2;
      body.end = MatchForward(tokens, i + 1, "{", "}");
      bodies.push_back(body);
    }
  }
  return bodies;
}

bool InsideAnyLoop(const std::vector<LoopBody>& bodies, size_t index) {
  for (const LoopBody& body : bodies) {
    if (index >= body.begin && index < body.end) return true;
  }
  return false;
}

/// Names declared float/double in this file (locals, members, params).
std::set<std::string> FpNames(const std::vector<Token>& tokens) {
  std::set<std::string> names;
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent ||
        (tokens[i].text != "double" && tokens[i].text != "float")) {
      continue;
    }
    const Token& name = tokens[i + 1];
    if (name.kind != Token::Kind::kIdent) continue;
    const std::string& after = tokens[i + 2].text;
    // `double Foo(` is a function returning double, not a variable.
    if (after == "(") continue;
    names.insert(name.text);
  }
  return names;
}

/// Names declared as std::unordered_{map,set,multimap,multiset}<...> in
/// this file.
std::set<std::string> UnorderedNames(const std::vector<Token>& tokens) {
  std::set<std::string> names;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const std::string& text = tokens[i].text;
    if (text != "unordered_map" && text != "unordered_set" &&
        text != "unordered_multimap" && text != "unordered_multiset") {
      continue;
    }
    if (tokens[i + 1].text != "<") continue;
    // Walk the template argument list by angle balance ('>>' lexes as two
    // '>' tokens), then take the declared name.
    int angle = 0;
    size_t j = i + 1;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].text == "<") ++angle;
      if (tokens[j].text == ">") {
        if (--angle == 0) break;
      }
    }
    if (j + 1 >= tokens.size()) continue;
    const Token& name = tokens[j + 1];
    if (name.kind != Token::Kind::kIdent) continue;
    if (j + 2 < tokens.size() && tokens[j + 2].text == "(") continue;
    names.insert(name.text);
  }
  return names;
}

void CheckFpAccumulate(const SourceFile& file,
                       const std::set<std::string>& fp_names,
                       const std::vector<LoopBody>& loops,
                       std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 1; i < tokens.size(); ++i) {
    bool accumulates = false;
    std::string target;
    int line = 0;
    if (tokens[i].text == "+=" || tokens[i].text == "-=") {
      // `x += expr` / `obj.x += expr`
      if (tokens[i - 1].kind == Token::Kind::kIdent &&
          fp_names.count(tokens[i - 1].text) != 0) {
        accumulates = true;
        target = tokens[i - 1].text;
        line = tokens[i].line;
      }
    } else if (tokens[i].text == "=" && i + 2 < tokens.size() &&
               tokens[i - 1].kind == Token::Kind::kIdent &&
               tokens[i + 1].kind == Token::Kind::kIdent &&
               tokens[i + 1].text == tokens[i - 1].text &&
               (tokens[i + 2].text == "+" || tokens[i + 2].text == "-")) {
      // `x = x + expr`
      if (fp_names.count(tokens[i - 1].text) != 0) {
        accumulates = true;
        target = tokens[i - 1].text;
        line = tokens[i].line;
      }
    }
    if (!accumulates || !InsideAnyLoop(loops, i)) continue;
    if (HasAllowMarker(file.lines, line, "fp-accumulate")) continue;
    findings->push_back(
        {"fp-accumulate", file.rel, line,
         "floating-point accumulation into '" + target +
             "' inside a loop; order-sensitive FP reduction outside "
             "analysis_core.h/kernel/ breaks bit-reproducibility — use a "
             "blessed reduction helper or justify with "
             "'// ppdb-lint: allow(fp-accumulate)'"});
  }
}

void CheckUnorderedIter(const SourceFile& file,
                        const std::set<std::string>& unordered_names,
                        const std::vector<LoopBody>& loops,
                        std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = file.tokens;
  for (const LoopBody& loop : loops) {
    if (tokens[loop.header_begin].text != "for") continue;
    // Range-for: a ':' at paren depth 1 inside the header.
    size_t colon = 0;
    int paren = 0;
    for (size_t i = loop.header_begin + 1; i < loop.header_end; ++i) {
      if (tokens[i].text == "(") ++paren;
      if (tokens[i].text == ")") --paren;
      if (tokens[i].text == ":" && paren == 1) {
        colon = i;
        break;
      }
    }
    if (colon == 0) continue;
    // The iterated expression's final identifier (`map_`, `state->set_`).
    std::string iterated;
    for (size_t i = colon + 1; i < loop.header_end; ++i) {
      if (tokens[i].kind == Token::Kind::kIdent) iterated = tokens[i].text;
    }
    if (iterated.empty() || unordered_names.count(iterated) == 0) continue;
    // Only iteration *feeding a reduction* is a determinism hazard.
    bool reduces = false;
    for (size_t i = loop.begin; i < loop.end; ++i) {
      if (tokens[i].text == "+=" || tokens[i].text == "-=") {
        reduces = true;
        break;
      }
    }
    if (!reduces) continue;
    const int line = tokens[loop.header_begin].line;
    if (HasAllowMarker(file.lines, line, "unordered-iter")) continue;
    findings->push_back(
        {"unordered-iter", file.rel, line,
         "reduction over hash-ordered iteration of '" + iterated +
             "'; unordered-container order varies across runs and "
             "libstdc++ versions — impose an order first or justify with "
             "'// ppdb-lint: allow(unordered-iter)'"});
  }
}

}  // namespace

std::vector<Finding> AnalyzeDeterminism(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // Per-file declared-name sets, so .cc files can resolve members declared
  // in their paired header.
  std::map<std::string, std::set<std::string>> fp_by_file;
  std::map<std::string, std::set<std::string>> unordered_by_file;
  for (const SourceFile& file : files) {
    fp_by_file[file.rel] = FpNames(file.tokens);
    unordered_by_file[file.rel] = UnorderedNames(file.tokens);
  }
  auto merged = [](std::map<std::string, std::set<std::string>>& by_file,
                   const std::string& rel) {
    std::set<std::string> names = by_file[rel];
    const std::set<std::string>& header = by_file[PairedHeader(rel)];
    names.insert(header.begin(), header.end());
    return names;
  };
  for (const SourceFile& file : files) {
    const std::vector<LoopBody> loops = FindLoopBodies(file.tokens);
    if (InFpScope(file.rel)) {
      CheckFpAccumulate(file, merged(fp_by_file, file.rel), loops,
                        &findings);
    }
    if (InUnorderedScope(file.rel)) {
      CheckUnorderedIter(file, merged(unordered_by_file, file.rel), loops,
                         &findings);
    }
  }
  return findings;
}

}  // namespace ppdb::analyzer
