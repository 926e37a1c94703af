#!/usr/bin/env bash
# Fixture tests for ppdb_analyze: each rule the analyzer claims to enforce
# is seeded into a tiny tree and MUST fail with a finding naming its check
# and site, and each escape hatch must silence exactly its own check. The
# positive half — the real tree analyzes clean and the DOT artifact
# renders — runs here too, so a single ctest entry proves both directions.
#
# Usage: analyzer_test.sh <ppdb_analyze-binary> <repo-root>
set -u

ANALYZE="${1:?path to ppdb_analyze}"
ROOT="${2:?repo root}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
OUT="$TMP/out"

fail() { echo "FAIL: $*" >&2; exit 1; }

# Every fixture starts from this clean tree: serve-docs needs a
# RequestKindName block whose command README.md names; the other rules
# pass on it as is.
mkdir -p "$TMP/template/src/server"
cat > "$TMP/template/src/server/request.cc" <<'EOF'
std::string_view RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing: return "ping";
  }
  return "unknown";
}
EOF
echo "The ping command." > "$TMP/template/README.md"

fixture() { T="$TMP/$1"; rm -rf "$T"; cp -r "$TMP/template" "$T"; }
add() { mkdir -p "$(dirname "$T/$1")"; cat > "$T/$1"; }  # add <rel> < text
expect_clean() {
  "$ANALYZE" --root "$T" > "$OUT" 2>&1 || fail "$*: $(cat "$OUT")"
}
expect_finding() { # expect_finding <site> <check>: exit 1, `<site>: [check]`
  "$ANALYZE" --root "$T" > "$OUT" 2>&1
  [ $? -eq 1 ] || fail "expected a [$2] finding at $1: $(cat "$OUT")"
  grep -q "^$1: \[$2\]" "$OUT" || fail "no [$2] finding at $1: $(cat "$OUT")"
}

# --- the real tree is clean and the lock graph renders -----------------------
"$ANALYZE" --root "$ROOT" --dot "$TMP/lock_order.dot" > "$OUT" 2>&1 \
  || fail "real tree is not clean: $(cat "$OUT")"
grep -q '"broker" -> "service"' "$TMP/lock_order.dot" \
  || fail "DOT artifact lacks the declared broker -> service edge"
grep -q 'style=dashed' "$TMP/lock_order.dot" \
  || fail "DOT artifact lacks observed (dashed) edges"
fixture clean; expect_clean "the clean template tree has findings"
echo "PASS  real tree and template are clean; the lock graph renders"

# --- lock-order --------------------------------------------------------------
fixture cycle; add src/a.h <<'EOF'
struct A {
  Mutex a_ PPDB_LOCK_LEVEL(alpha) PPDB_ACQUIRED_BEFORE(beta);
  Mutex b_ PPDB_LOCK_LEVEL(beta) PPDB_ACQUIRED_BEFORE(alpha);
};
EOF
"$ANALYZE" --root "$T" > "$OUT" 2>&1 && fail "declared cycle was not detected"
grep -q "^\[lock-order\] declared lock order contains a cycle" "$OUT" \
  || fail "no cycle finding: $(cat "$OUT")"

fixture invert; add src/a.h <<'EOF'
struct A {
  Mutex a_ PPDB_LOCK_LEVEL(alpha) PPDB_ACQUIRED_BEFORE(beta);
  Mutex b_ PPDB_LOCK_LEVEL(beta);
  void Tangle();
};
EOF
add src/a.cc <<'EOF'
#include "a.h"
void A::Tangle() {
  MutexLock lb(b_);
  MutexLock la(a_);
}
EOF
expect_finding src/a.cc:4 lock-order
grep -q "INVERTS" "$OUT" || fail "inversion not reported as such"

fixture nolevel; add src/a.h <<'EOF'
struct A {
  Mutex anon_;
  int x_ PPDB_GUARDED_BY(anon_);
};
EOF
expect_finding src/a.h:2 lock-order
add src/a.h <<'EOF'
struct A {
  // ppdb-lint: allow(lock-order)
  Mutex anon_;
  int x_ PPDB_GUARDED_BY(anon_);
};
EOF
expect_clean "allow(lock-order) did not silence the missing level"
echo "PASS  lock-order: cycle, inversion and unleveled mutex fail;" \
     "allow(lock-order) silences"

# --- determinism -------------------------------------------------------------
fixture fp; add src/violation/sum.cc <<'EOF'
double Total(const double* v, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += v[i];
  return sum;
}
EOF
expect_finding src/violation/sum.cc:3 fp-accumulate
sed -i '3i // ppdb-lint: allow(fp-accumulate)' "$T/src/violation/sum.cc"
expect_clean "allow(fp-accumulate) did not silence"
mkdir -p "$T/src/violation/kernel"
sed '3d' "$T/src/violation/sum.cc" > "$T/src/violation/kernel/reduce.cc"
expect_clean "kernel/ reduction helper was flagged"

fixture uo; add src/server/agg.cc <<'EOF'
#include <unordered_map>
struct Agg {
  std::unordered_map<int, double> weights_;
  double Sum() {
    double total = 0.0;
    for (const auto& [k, w] : weights_) total += w;
    return total;
  }
};
EOF
expect_finding src/server/agg.cc:6 unordered-iter
echo "PASS  determinism: fp-accumulate (kernel/ exempt) and unordered-iter"

# --- token bans --------------------------------------------------------------
fixture nd; add src/seed.cc <<'EOF'
#include <cstdlib>
#include <random>
int Seed() {
  std::random_device rd;
  return static_cast<int>(rd()) + rand();
}
EOF
expect_finding src/seed.cc:4 nondet-source
expect_finding src/seed.cc:5 nondet-source

fixture sync; add src/a.cc <<'EOF'
// Doc prose saying std::mutex is forbidden must NOT trip the check.
#include <mutex>
std::mutex bad_mu;
EOF
expect_finding src/a.cc:3 std-sync
grep -q "^src/a.cc:1:" "$OUT" && fail "comment prose was flagged"

fixture sync2; add src/a.cc <<'EOF'
#include <mutex>
std::mutex special_mu;  // ppdb-lint: allow(std-sync) — fixture
EOF
expect_clean "inline allow(std-sync) did not silence"

fixture sync3; add src/a.cc <<'EOF'
#include <mutex>
// This lock predates the wrappers; migration tracked elsewhere.
// ppdb-lint: allow(std-sync)
// (more justification prose after the marker is fine)
std::mutex legacy_mu;
EOF
expect_clean "allow marker in the comment block above did not silence"

fixture sync4; add src/a.cc <<'EOF'
#include <mutex>
// ppdb-lint: allow(std-sync)
int unrelated_code_between = 0;
std::mutex still_bad_mu;
EOF
expect_finding src/a.cc:4 std-sync

fixture sync5; add src/a.cc <<'EOF'
#include <mutex>
std::mutex wrong_marker_mu;  // ppdb-lint: allow(raw-new)
EOF
expect_finding src/a.cc:2 std-sync
echo "PASS  nondet-source and std-sync fail; markers inline or in the block" \
     "above silence, a code line breaks the block, markers are per-check"

fixture sys; add src/a.cc <<'EOF'
int Shell() { return system("true"); }
EOF
expect_finding src/a.cc:1 system
sed -i 's|$|  // ppdb-lint: allow(system) — fixture|' "$T/src/a.cc"
expect_clean "allow(system) did not silence"

fixture new; add src/a.cc <<'EOF'
int* Leak() { return new int(7); }
EOF
expect_finding src/a.cc:1 raw-new

fixture metric; add src/a.cc <<'EOF'
void Register(Registry& r) { r.GetCounter("stray_total"); }
EOF
expect_finding src/a.cc:1 metric-reg

fixture simd; add tests/a.cc <<'EOF'
#include <immintrin.h>
EOF
expect_finding tests/a.cc:1 intrinsics
sed -i 's|$|  // ppdb-lint: allow(intrinsics)|' "$T/tests/a.cc"
expect_finding tests/a.cc:1 intrinsics  # takes no allow marker
mkdir -p "$T/src/violation/kernel"
mv "$T/tests/a.cc" "$T/src/violation/kernel/a.cc"
expect_clean "intrinsics under src/violation/kernel/ were flagged"
echo "PASS  system, raw-new, metric-reg and intrinsics fail; intrinsics" \
     "takes no marker, and kernel/ may include them"

# --- guarded-by --------------------------------------------------------------
fixture gb; add src/a.h <<'EOF'
struct A {
  int counter_ PPDB_GUARDED_BY(mu_);
  Mutex mu_ PPDB_LOCK_LEVEL(a);
  Mutex orphan_mu_ PPDB_LOCK_LEVEL(b);
};
EOF
expect_finding src/a.h:4 guarded-by
grep -q "^src/a.h:3:" "$OUT" && fail "guarded-by flagged the referenced mu_"

fixture gb2; add src/a.h <<'EOF'
struct A {
  Mutex named_mu_{"named"} PPDB_LOCK_LEVEL(named);
};
EOF
expect_finding src/a.h:2 guarded-by

fixture gb3; add src/a.cc <<'EOF'
void F() {
  // Local completion latch, joined before return.
  // ppdb-lint: allow(guarded-by)
  // ppdb-lint: allow(lock-order)
  Mutex local_mu;
}
EOF
expect_clean "allow(guarded-by) did not silence a function-local mutex"
echo "PASS  guarded-by is per-member, matches brace-initialised annotated" \
     "declarations, and allow(guarded-by) silences"

# --- serve-docs --------------------------------------------------------------
fixture docs
sed -i '3a\    case RequestKind::kSecret: return "undocumented_cmd";' \
  "$T/src/server/request.cc"
expect_finding src/server/request.cc:4 serve-docs
grep -q "undocumented_cmd" "$OUT" || fail "serve-docs did not name the command"
rm "$T/src/server/request.cc"
"$ANALYZE" --root "$T" > "$OUT" 2>&1 && fail "a tree with no commands passed"
grep -q "^\[serve-docs\] could not extract" "$OUT" \
  || fail "no extraction failure reported: $(cat "$OUT")"
echo "PASS  serve-docs names an undocumented command and fails on none"

# --- usage errors exit 2, not 1 ----------------------------------------------
"$ANALYZE" --bogus > /dev/null 2>&1
[ $? -eq 2 ] || fail "an unknown flag should exit 2"
"$ANALYZE" --root "$TMP/does-not-exist" > /dev/null 2>&1
[ $? -eq 2 ] || fail "missing root should exit 2"
echo "PASS  usage and IO errors are distinct from findings"

echo "OK: ppdb_analyze self-test"
