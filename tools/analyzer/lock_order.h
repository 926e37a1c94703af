#ifndef PPDB_TOOLS_ANALYZER_LOCK_ORDER_H_
#define PPDB_TOOLS_ANALYZER_LOCK_ORDER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "source_lexer.h"

/// Pass 1: lock-order analysis.
///
/// Inputs are the PPDB_LOCK_LEVEL / PPDB_ACQUIRED_BEFORE /
/// PPDB_ACQUIRED_AFTER declarations on Mutex/SharedMutex members (the
/// documented global order) and the acquisition structure lexed out of
/// src/: RAII guard sites (`MutexLock l(mu_)` and friends), hand-locked
/// `mu_.Lock()` spans, `PPDB_REQUIRES`-annotated function bodies (the
/// level is held throughout), and calls to methods whose header annotates
/// them `PPDB_EXCLUDES(mu)` (the method acquires that level internally —
/// the convention every locked component follows).
///
/// The pass fails on:
///   * a Mutex/SharedMutex member with no PPDB_LOCK_LEVEL declaration
///     (exempt a function-local with `// ppdb-lint: allow(lock-order)`),
///   * a cycle in the declared order itself,
///   * an observed acquisition edge that the declared order does not
///     permit — either inverted (the reverse direction is declared: a
///     potential deadlock) or simply undeclared (a cross-component
///     acquisition nobody wrote down).
///
/// The whole graph — declared chain plus observed edges — is emitted as a
/// DOT artifact so the order stays reviewable as the tree grows.
namespace ppdb::analyzer {

struct LevelDecl {
  std::string level;
  std::string member;   // e.g. "mu_"
  std::string file;     // declaring file (rel path)
  int line = 0;
  bool shared = false;  // SharedMutex vs Mutex
};

struct OrderEdge {
  std::string from;  // level held
  std::string to;    // level acquired
  std::string file;  // where observed/declared
  int line = 0;
  bool declared = false;  // from PPDB_ACQUIRED_* rather than a code site
  std::string via;        // for observed edges: the call or guard site text
};

struct Finding {
  std::string check;  // rule name, also the `ppdb-lint: allow(...)` marker
  std::string file;
  int line = 0;
  std::string message;
};

struct LockOrderResult {
  std::vector<LevelDecl> levels;
  std::vector<OrderEdge> declared_edges;
  std::vector<OrderEdge> observed_edges;  // deduped by (from, to)
  std::vector<Finding> errors;
};

/// Runs the pass over the loaded tree.
LockOrderResult AnalyzeLockOrder(const std::vector<SourceFile>& files);

/// Token indices of the declared names in every `Mutex`/`SharedMutex`
/// variable declaration (`[mutable] Mutex name ...;`, brace initializer and
/// order macros allowed); the type is the token before each name.
std::vector<size_t> MutexDeclNames(const std::vector<Token>& tokens);

/// Identifier arguments of a `PPDB_*(...)` macro whose '(' is at `open`.
std::vector<std::string> MacroArgs(const std::vector<Token>& tokens,
                                   size_t open);

/// Renders the order graph (declared chain solid, observed edges dashed)
/// in Graphviz DOT format.
std::string RenderDot(const LockOrderResult& result);

}  // namespace ppdb::analyzer

#endif  // PPDB_TOOLS_ANALYZER_LOCK_ORDER_H_
