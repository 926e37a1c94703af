#include "lock_order.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace ppdb::analyzer {
namespace {

bool IsMutexType(const std::string& text) {
  return text == "Mutex" || text == "SharedMutex";
}

bool IsGuardType(const std::string& text) {
  return text == "MutexLock" || text == "WriterMutexLock" ||
         text == "ReaderMutexLock";
}

}  // namespace

std::vector<std::string> MacroArgs(const std::vector<Token>& tokens,
                                   size_t open) {
  std::vector<std::string> args;
  const size_t close = MatchForward(tokens, open, "(", ")");
  for (size_t i = open + 1; i < close && i < tokens.size(); ++i) {
    if (tokens[i].kind == Token::Kind::kIdent) args.push_back(tokens[i].text);
  }
  return args;
}

std::vector<size_t> MutexDeclNames(const std::vector<Token>& tokens) {
  std::vector<size_t> names;
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent || !IsMutexType(tokens[i].text)) {
      continue;
    }
    // A member/variable declaration: `Mutex name ...;` where the
    // preceding token closes a previous declaration or is a qualifier,
    // and the name is not followed by '(' (that would be a function).
    if (i > 0) {
      const std::string& prev = tokens[i - 1].text;
      const bool decl_context = prev == ";" || prev == "{" || prev == "}" ||
                                prev == ":" || prev == "mutable" ||
                                prev == "::" || prev == "public" ||
                                prev == "private" || prev == "protected";
      if (!decl_context) continue;
    }
    if (tokens[i + 1].kind != Token::Kind::kIdent) continue;
    const std::string& after = tokens[i + 2].text;
    if (after == "(" || after == "&" || after == "*" || after == ",") {
      continue;
    }
    names.push_back(i + 1);
  }
  return names;
}

namespace {

struct TreeIndex {
  // rel path -> member name -> level
  std::map<std::string, std::map<std::string, std::string>> file_members;
  // member name -> declaring levels (for global-unique fallback)
  std::map<std::string, std::set<std::string>> member_levels;
  // level name -> declaration
  std::map<std::string, LevelDecl> levels;
  // method name -> levels it acquires internally (PPDB_EXCLUDES)
  std::map<std::string, std::set<std::string>> acquires;
  // (rel path, method name) -> levels held throughout (PPDB_REQUIRES*)
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      requires_held;
};

/// Walks back from the PPDB_EXCLUDES/REQUIRES annotation at `anno` to the
/// method name it annotates: skips `const`/`noexcept`/`override`, expects
/// the parameter list's ')' and matches it back to '(', then takes the
/// identifier before it. Returns "" when the shape does not match.
std::string MethodNameBeforeAnnotation(const std::vector<Token>& tokens,
                                       size_t anno) {
  size_t i = anno;
  while (i > 0) {
    --i;
    const std::string& text = tokens[i].text;
    if (text == "const" || text == "noexcept" || text == "override" ||
        text == "final") {
      continue;
    }
    if (text == ")") {
      int balance = 1;
      while (i > 0 && balance > 0) {
        --i;
        if (tokens[i].text == ")") ++balance;
        if (tokens[i].text == "(") --balance;
      }
      if (balance != 0 || i == 0) return "";
      const Token& name = tokens[i - 1];
      if (name.kind == Token::Kind::kIdent) return name.text;
      return "";
    }
    return "";
  }
  return "";
}

/// Scans every file for mutex member declarations (building the level
/// registry and per-file member maps) and for method annotations (building
/// the acquires / requires maps). Declaration problems append to `errors`.
TreeIndex BuildIndex(const std::vector<SourceFile>& files,
                     std::vector<OrderEdge>* declared_edges,
                     std::vector<Finding>* errors) {
  TreeIndex index;
  for (const SourceFile& file : files) {
    const std::vector<Token>& tokens = file.tokens;
    for (const size_t n : MutexDeclNames(tokens)) {
      const Token& type = tokens[n - 1];
      const Token& name = tokens[n];
      // Parse the declaration through ';' for the order macros.
      std::string level;
      std::vector<std::string> before, after_levels;
      int level_line = 0;
      for (size_t j = n + 1; j < tokens.size() && tokens[j].text != ";";
           ++j) {
        const std::string& text = tokens[j].text;
        if (text == "PPDB_LOCK_LEVEL" && tokens[j + 1].text == "(") {
          std::vector<std::string> args = MacroArgs(tokens, j + 1);
          if (!args.empty()) {
            level = args[0];
            level_line = tokens[j].line;
          }
        } else if (text == "PPDB_ACQUIRED_BEFORE" &&
                   tokens[j + 1].text == "(") {
          std::vector<std::string> args = MacroArgs(tokens, j + 1);
          before.insert(before.end(), args.begin(), args.end());
        } else if (text == "PPDB_ACQUIRED_AFTER" &&
                   tokens[j + 1].text == "(") {
          std::vector<std::string> args = MacroArgs(tokens, j + 1);
          after_levels.insert(after_levels.end(), args.begin(), args.end());
        }
      }
      if (level.empty()) {
        if (!HasAllowMarker(file.lines, name.line, "lock-order")) {
          errors->push_back(
              {"lock-order", file.rel, name.line,
               "Mutex member '" + name.text +
                   "' has no PPDB_LOCK_LEVEL declaration; give it a place "
                   "in the documented global lock order (DESIGN.md) or "
                   "mark a function-local with "
                   "'// ppdb-lint: allow(lock-order)'"});
        }
        continue;
      }
      if (index.levels.count(level) != 0) {
        errors->push_back(
            {"lock-order", file.rel, level_line,
             "lock level '" + level + "' already declared at " +
                 index.levels[level].file + ":" +
                 std::to_string(index.levels[level].line)});
        continue;
      }
      LevelDecl decl;
      decl.level = level;
      decl.member = name.text;
      decl.file = file.rel;
      decl.line = name.line;
      decl.shared = type.text == "SharedMutex";
      index.levels[level] = decl;
      index.file_members[file.rel][name.text] = level;
      index.member_levels[name.text].insert(level);
      for (const std::string& other : before) {
        declared_edges->push_back(
            {level, other, file.rel, level_line, true, ""});
      }
      for (const std::string& other : after_levels) {
        declared_edges->push_back(
            {other, level, file.rel, level_line, true, ""});
      }
    }
  }

  // Second sweep: method annotations can only be resolved once every
  // member has a level.
  for (const SourceFile& file : files) {
    const std::vector<Token>& tokens = file.tokens;
    const auto members = index.file_members.find(file.rel);
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      const std::string& text = tokens[i].text;
      const bool is_excludes = text == "PPDB_EXCLUDES";
      const bool is_requires =
          text == "PPDB_REQUIRES" || text == "PPDB_REQUIRES_SHARED";
      if ((!is_excludes && !is_requires) || tokens[i + 1].text != "(") {
        continue;
      }
      const std::string method = MethodNameBeforeAnnotation(tokens, i);
      if (method.empty()) continue;
      for (const std::string& arg : MacroArgs(tokens, i + 1)) {
        std::string level;
        if (members != index.file_members.end()) {
          auto it = members->second.find(arg);
          if (it != members->second.end()) level = it->second;
        }
        if (level.empty()) continue;
        if (is_excludes) {
          index.acquires[method].insert(level);
        } else {
          index.requires_held[file.rel][method].insert(level);
        }
      }
    }
  }
  return index;
}

/// Resolves a lock-guard argument (the trailing identifier of e.g.
/// `state->mu` or `mu_`) to a level: same file first, then the paired
/// header, then a globally unique member name.
std::string ResolveMember(const TreeIndex& index, const std::string& rel,
                          const std::string& member) {
  auto lookup = [&](const std::string& file) -> std::string {
    auto fit = index.file_members.find(file);
    if (fit == index.file_members.end()) return "";
    auto mit = fit->second.find(member);
    return mit == fit->second.end() ? "" : mit->second;
  };
  std::string level = lookup(rel);
  if (!level.empty()) return level;
  level = lookup(PairedHeader(rel));
  if (!level.empty()) return level;
  auto git = index.member_levels.find(member);
  if (git != index.member_levels.end() && git->second.size() == 1) {
    return *git->second.begin();
  }
  return "";
}

struct HeldLock {
  std::string level;
  int depth = 0;    // brace depth the hold belongs to (scope of the guard)
  bool manual = false;  // hand-locked via .Lock(); released by .Unlock()
  bool whole_function = false;  // from PPDB_REQUIRES on the function
};

/// Extracts observed acquisition edges from one file's token stream.
void ScanAcquisitions(const SourceFile& file, const TreeIndex& index,
                      std::map<std::pair<std::string, std::string>,
                               OrderEdge>* observed) {
  const std::vector<Token>& tokens = file.tokens;
  int depth = 0;
  std::vector<HeldLock> held;

  auto record_edges_to = [&](const std::string& to, int line,
                             const std::string& via) {
    for (const HeldLock& h : held) {
      if (h.level == to) continue;
      const auto key = std::make_pair(h.level, to);
      if (observed->count(key) != 0) continue;
      (*observed)[key] = {h.level, to, file.rel, line, false, via};
    }
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.text == "{") {
      ++depth;
      continue;
    }
    if (token.text == "}") {
      --depth;
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const HeldLock& h) {
                                  return !h.manual && h.depth > depth;
                                }),
                 held.end());
      // Hand-locked spans do not outlive the function either.
      if (depth == 0) held.clear();
      continue;
    }
    if (token.kind != Token::Kind::kIdent) continue;

    // RAII guard: `MutexLock lock(arg);`
    if (IsGuardType(token.text) && i + 2 < tokens.size() &&
        tokens[i + 1].kind == Token::Kind::kIdent &&
        tokens[i + 2].text == "(") {
      const size_t close = MatchForward(tokens, i + 2, "(", ")");
      std::string arg;
      for (size_t j = i + 3; j < close; ++j) {
        if (tokens[j].kind == Token::Kind::kIdent) arg = tokens[j].text;
      }
      const std::string level = ResolveMember(index, file.rel, arg);
      if (!level.empty()) {
        record_edges_to(level, token.line, token.text + "(" + arg + ")");
        held.push_back({level, depth, false, false});
      }
      i = close;
      continue;
    }

    // Hand-locked span: `arg.Lock()` / `arg->LockShared()` ... `Unlock()`.
    if ((token.text == "Lock" || token.text == "LockShared" ||
         token.text == "Unlock" || token.text == "UnlockShared") &&
        i >= 2 && i + 1 < tokens.size() && tokens[i + 1].text == "(" &&
        (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
        tokens[i - 2].kind == Token::Kind::kIdent) {
      const std::string level =
          ResolveMember(index, file.rel, tokens[i - 2].text);
      if (!level.empty()) {
        if (token.text == "Lock" || token.text == "LockShared") {
          record_edges_to(level, token.line,
                          tokens[i - 2].text + "." + token.text + "()");
          held.push_back({level, depth, true, false});
        } else {
          for (auto it = held.rbegin(); it != held.rend(); ++it) {
            if (it->manual && it->level == level) {
              held.erase(std::next(it).base());
              break;
            }
          }
        }
      }
      continue;
    }

    // Function definition `Class::Method(...) ... {` — the body holds the
    // levels its header declaration marks PPDB_REQUIRES.
    if (held.empty() && i + 3 < tokens.size() && tokens[i + 1].text == "::" &&
        tokens[i + 2].kind == Token::Kind::kIdent &&
        tokens[i + 3].text == "(") {
      const std::string& method = tokens[i + 2].text;
      const size_t close = MatchForward(tokens, i + 3, "(", ")");
      size_t j = close + 1;
      while (j < tokens.size() &&
             (tokens[j].text == "const" || tokens[j].text == "noexcept" ||
              tokens[j].text == "override" || tokens[j].text == "final")) {
        ++j;
      }
      if (j < tokens.size() && tokens[j].text == "{") {
        std::set<std::string> levels;
        auto collect = [&](const std::string& rel) {
          auto fit = index.requires_held.find(rel);
          if (fit == index.requires_held.end()) return;
          auto mit = fit->second.find(method);
          if (mit == fit->second.end()) return;
          levels.insert(mit->second.begin(), mit->second.end());
        };
        collect(PairedHeader(file.rel));
        collect(file.rel);
        for (const std::string& level : levels) {
          held.push_back({level, depth + 1, false, true});
        }
        // Fall through: the '{' is consumed by the main loop next round.
      }
      i = close;
      continue;
    }

    // Call into a method that acquires a level internally
    // (PPDB_EXCLUDES annotation in its header). Only unambiguous method
    // names contribute edges.
    if (!held.empty() && i + 1 < tokens.size() && tokens[i + 1].text == "(" &&
        i >= 1 &&
        (tokens[i - 1].text == "." || tokens[i - 1].text == "->")) {
      auto ait = index.acquires.find(token.text);
      if (ait != index.acquires.end() && ait->second.size() == 1) {
        record_edges_to(*ait->second.begin(), token.line,
                        token.text + "()");
      }
      continue;
    }
  }
}

/// DFS cycle search over the declared graph; returns one cycle as a level
/// sequence, empty when acyclic.
std::vector<std::string> FindDeclaredCycle(
    const std::map<std::string, std::set<std::string>>& graph) {
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::vector<std::string> cycle;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& node) {
        state[node] = 1;
        stack.push_back(node);
        auto it = graph.find(node);
        if (it != graph.end()) {
          for (const std::string& next : it->second) {
            if (state[next] == 1) {
              auto begin =
                  std::find(stack.begin(), stack.end(), next);
              cycle.assign(begin, stack.end());
              cycle.push_back(next);
              return true;
            }
            if (state[next] == 0 && visit(next)) return true;
          }
        }
        stack.pop_back();
        state[node] = 2;
        return false;
      };
  for (const auto& [node, _] : graph) {
    if (state[node] == 0 && visit(node)) return cycle;
  }
  return {};
}

}  // namespace

LockOrderResult AnalyzeLockOrder(const std::vector<SourceFile>& files) {
  LockOrderResult result;
  TreeIndex index = BuildIndex(files, &result.declared_edges, &result.errors);
  for (const auto& [level, decl] : index.levels) {
    result.levels.push_back(decl);
  }

  // Declared levels referenced by PPDB_ACQUIRED_* must exist (typo guard).
  for (const OrderEdge& edge : result.declared_edges) {
    for (const std::string* level : {&edge.from, &edge.to}) {
      if (index.levels.count(*level) == 0) {
        result.errors.push_back(
            {"lock-order", edge.file, edge.line,
             "PPDB_ACQUIRED_BEFORE/AFTER names unknown lock level '" +
                 *level + "'"});
      }
    }
  }

  // The declared order itself must be acyclic.
  std::map<std::string, std::set<std::string>> declared;
  for (const OrderEdge& edge : result.declared_edges) {
    declared[edge.from].insert(edge.to);
  }
  const std::vector<std::string> cycle = FindDeclaredCycle(declared);
  if (!cycle.empty()) {
    std::string path;
    for (const std::string& level : cycle) {
      if (!path.empty()) path += " -> ";
      path += level;
    }
    result.errors.push_back(
        {"lock-order", "", 0,
         "declared lock order contains a cycle (potential deadlock): " +
             path});
    return result;  // closure below would be meaningless
  }

  // Transitive closure of the declared DAG.
  std::map<std::string, std::set<std::string>> closure;
  std::function<const std::set<std::string>&(const std::string&)> reach =
      [&](const std::string& node) -> const std::set<std::string>& {
    auto it = closure.find(node);
    if (it != closure.end()) return it->second;
    std::set<std::string>& mine = closure[node];
    auto git = declared.find(node);
    if (git != declared.end()) {
      for (const std::string& next : git->second) {
        mine.insert(next);
        const std::set<std::string>& sub = reach(next);
        mine.insert(sub.begin(), sub.end());
      }
    }
    return mine;
  };

  // Observed acquisitions.
  std::map<std::pair<std::string, std::string>, OrderEdge> observed;
  for (const SourceFile& file : files) {
    ScanAcquisitions(file, index, &observed);
  }
  for (auto& [key, edge] : observed) {
    const bool allowed = reach(edge.from).count(edge.to) != 0;
    if (!allowed) {
      const SourceFile* file = nullptr;
      for (const SourceFile& f : files) {
        if (f.rel == edge.file) {
          file = &f;
          break;
        }
      }
      if (file != nullptr &&
          HasAllowMarker(file->lines, edge.line, "lock-order")) {
        edge.via += " [allowed]";
      } else if (reach(edge.to).count(edge.from) != 0) {
        result.errors.push_back(
            {"lock-order", edge.file, edge.line,
             "acquisition of '" + edge.to + "' (via " + edge.via +
                 ") while holding '" + edge.from +
                 "' INVERTS the declared lock order — potential deadlock"});
      } else {
        result.errors.push_back(
            {"lock-order", edge.file, edge.line,
             "acquisition of '" + edge.to + "' (via " + edge.via +
                 ") while holding '" + edge.from +
                 "' is not covered by any PPDB_ACQUIRED_BEFORE/AFTER "
                 "declaration; declare the order or mark the site with "
                 "'// ppdb-lint: allow(lock-order)'"});
      }
    }
    result.observed_edges.push_back(edge);
  }
  return result;
}

std::string RenderDot(const LockOrderResult& result) {
  std::ostringstream out;
  out << "digraph ppdb_lock_order {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontname=\"Helvetica\"];\n"
      << "  label=\"ppdb global lock order — solid: declared "
         "(PPDB_ACQUIRED_BEFORE/AFTER), dashed: observed acquisitions\";\n";
  for (const LevelDecl& decl : result.levels) {
    out << "  \"" << decl.level << "\" [label=\"" << decl.level << "\\n"
        << decl.file << ":" << decl.member
        << (decl.shared ? " (shared)" : "") << "\"];\n";
  }
  std::set<std::pair<std::string, std::string>> declared;
  for (const OrderEdge& edge : result.declared_edges) {
    if (!declared.insert({edge.from, edge.to}).second) continue;
    out << "  \"" << edge.from << "\" -> \"" << edge.to << "\";\n";
  }
  for (const OrderEdge& edge : result.observed_edges) {
    const bool is_declared = declared.count({edge.from, edge.to}) != 0;
    out << "  \"" << edge.from << "\" -> \"" << edge.to
        << "\" [style=dashed, color=" << (is_declared ? "gray40" : "gray70")
        << ", label=\"" << edge.file << ":" << edge.line << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace ppdb::analyzer
