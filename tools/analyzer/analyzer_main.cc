// ppdb_analyze — in-tree static analyzer for the ppdb codebase and its one
// static gate. Every run checks every rule over a lexed (not compiled) view
// of src/: lock-order (lock_order.h), fp-accumulate and unordered-iter
// (determinism.h), and the project rules (project_rules.h). --dot also
// writes the lock-order graph as DOT.
//
// Usage: ppdb_analyze [--root DIR] [--dot FILE]
// Exit 0 when clean, 1 on findings, 2 on usage/IO errors.
// Findings print as `file:line: [check] message` (relative to --root).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "determinism.h"
#include "lock_order.h"
#include "project_rules.h"
#include "source_lexer.h"

namespace fs = std::filesystem;
namespace analyzer = ppdb::analyzer;

namespace {

int Usage() {
  std::cerr << "usage: ppdb_analyze [--root DIR] [--dot FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string dot_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      return Usage();
    }
  }

  std::error_code ec;
  if (!fs::is_directory(fs::path(root) / "src", ec)) {
    std::cerr << "ppdb_analyze: no src/ under --root " << root << "\n";
    return 2;
  }

  // Deterministic file order (the analyzer had better practice what it
  // preaches): collect, then sort by relative path.
  std::vector<std::string> rels;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path top = fs::path(root) / dir;
    if (!fs::is_directory(top, ec)) continue;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(top)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp")) {
        continue;
      }
      rels.push_back(
          fs::relative(entry.path(), fs::path(root)).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());

  std::vector<analyzer::SourceFile> files;  // every tree read
  std::vector<analyzer::SourceFile> src;    // src/ *.cc and *.h
  files.reserve(rels.size());
  for (const std::string& rel : rels) {
    analyzer::SourceFile file;
    const std::string full = (fs::path(root) / rel).generic_string();
    if (!analyzer::LoadSourceFile(full, rel, &file)) {
      std::cerr << "ppdb_analyze: cannot read " << full << "\n";
      return 2;
    }
    if (analyzer::IsSrcFile(rel)) src.push_back(file);
    files.push_back(std::move(file));
  }

  const analyzer::LockOrderResult lock_order = analyzer::AnalyzeLockOrder(src);
  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    if (!out) {
      std::cerr << "ppdb_analyze: cannot write " << dot_path << "\n";
      return 2;
    }
    out << analyzer::RenderDot(lock_order);
    std::cerr << "ppdb_analyze: lock graph written to " << dot_path << " ("
              << lock_order.levels.size() << " levels, "
              << lock_order.observed_edges.size() << " observed edges)\n";
  }
  std::vector<analyzer::Finding> findings = lock_order.errors;
  for (const auto& more : {analyzer::AnalyzeDeterminism(src),
                           analyzer::AnalyzeProjectRules(files, root)}) {
    findings.insert(findings.end(), more.begin(), more.end());
  }
  for (const analyzer::Finding& finding : findings) {
    if (!finding.file.empty()) {
      std::cout << finding.file << ":" << finding.line << ": ";
    }
    std::cout << "[" << finding.check << "] " << finding.message << "\n";
  }
  if (!findings.empty()) {
    std::cout << "ppdb_analyze: " << findings.size()
              << " finding(s); silence a false positive with "
                 "'// ppdb-lint: allow(<check>)' and a justification\n";
    return 1;
  }
  std::cerr << "ppdb_analyze: clean (" << files.size() << " files)\n";
  return 0;
}
