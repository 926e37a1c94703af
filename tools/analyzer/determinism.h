#ifndef PPDB_TOOLS_ANALYZER_DETERMINISM_H_
#define PPDB_TOOLS_ANALYZER_DETERMINISM_H_

#include <vector>

#include "lock_order.h"  // for Finding
#include "source_lexer.h"

/// Pass 2: determinism analysis.
///
/// The paper's violation counts (Eqs. 12-14) must be bit-reproducible
/// across runs and thread counts — the replay tests and the incremental
/// view's full-recompute parity check both depend on it. Two checks (the
/// third way to lose reproducibility, a nondeterministic source, is the
/// `nondet-source` token ban in project_rules.h):
///
///   * fp-accumulate — floating-point accumulation (`x += ...` or
///     `x = x + ...` on a float/double) inside a loop, in src/violation/
///     outside the blessed reduction helpers (analysis_core.h and
///     kernel/, whose pairwise/compensated sums define the canonical
///     answer). Order-sensitive FP reduction anywhere else is how two
///     runs diverge. Escape hatch: `// ppdb-lint: allow(fp-accumulate)`
///     with a justification that the iteration order is canonical.
///
///   * unordered-iter — range-for over a std::unordered_map/set feeding
///     an accumulation, in src/violation/ and src/server/. Hash-order
///     iteration is nondeterministic across libstdc++ versions and seed
///     values; reductions over it must first impose an order. Escape:
///     `// ppdb-lint: allow(unordered-iter)`.
namespace ppdb::analyzer {

/// Runs both checks over the loaded tree; returns findings (empty ==
/// pass). Scoping by path is built in, matching the contract above.
std::vector<Finding> AnalyzeDeterminism(const std::vector<SourceFile>& files);

}  // namespace ppdb::analyzer

#endif  // PPDB_TOOLS_ANALYZER_DETERMINISM_H_
