#ifndef PPDB_TOOLS_ANALYZER_PROJECT_RULES_H_
#define PPDB_TOOLS_ANALYZER_PROJECT_RULES_H_

#include <string>
#include <vector>

#include "lock_order.h"  // for Finding
#include "source_lexer.h"

/// Pass 3: project rules no generic linter can express (DESIGN.md §9).
///
/// One table of token bans — std-sync, system, raw-new, nondet-source,
/// metric-reg, and intrinsics, the only rule that also reads tests/,
/// bench/, examples/ and tools/ — plus two whole-file rules: guarded-by
/// (every Mutex/SharedMutex member is named by a PPDB_GUARDED_BY /
/// PPDB_REQUIRES(_SHARED) / PPDB_EXCLUDES in its own file) and serve-docs
/// (every command src/server/request.cc's RequestKindName returns appears
/// as a word in README.md or OBSERVABILITY.md). Every rule but metric-reg,
/// intrinsics and serve-docs is silenced by `// ppdb-lint: allow(<check>)`.
namespace ppdb::analyzer {

/// True for the src/ *.cc/*.h files every other pass reads.
bool IsSrcFile(const std::string& rel);

/// Runs every project rule over `files` (src/ plus the extra trees the
/// intrinsics ban reads); `root` locates README.md and OBSERVABILITY.md.
std::vector<Finding> AnalyzeProjectRules(const std::vector<SourceFile>& files,
                                         const std::string& root);

}  // namespace ppdb::analyzer

#endif  // PPDB_TOOLS_ANALYZER_PROJECT_RULES_H_
