#ifndef PPDB_VIOLATION_KERNEL_SEVERITY_KERNEL_H_
#define PPDB_VIOLATION_KERNEL_SEVERITY_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"

/// The data-oriented severity kernel: Eqs. 12–14 evaluated over
/// structure-of-arrays tuple columns instead of one (preference, policy)
/// pair at a time.
///
/// The kernel layer is the only part of the tree allowed to include
/// platform intrinsics headers (<immintrin.h>, <arm_neon.h>; enforced by
/// ppdb_analyze). Three implementations are provided — portable
/// scalar (always compiled), AVX2 (x86-64) and NEON (aarch64) — selected
/// at runtime behind one dispatched entry point. Every implementation is
/// bitwise-identical: per-lane IEEE-754 operations are issued in exactly
/// the order of the scalar reference, and reductions that are sensitive to
/// association (the Eq. 15 sum over tuples) stay with the caller, so a
/// `ViolationReport` does not depend on the dispatch target.

// Compile-time availability of the SIMD paths. PPDB_ENABLE_SIMD_KERNELS is
// defined by CMake (option PPDB_ENABLE_SIMD, default ON); switching it off
// compiles the scalar fallback alone, which CI exercises as a matrix leg.
#if defined(PPDB_ENABLE_SIMD_KERNELS) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define PPDB_KERNEL_HAVE_AVX2 1
#else
#define PPDB_KERNEL_HAVE_AVX2 0
#endif
#if defined(PPDB_ENABLE_SIMD_KERNELS) && defined(__aarch64__)
#define PPDB_KERNEL_HAVE_NEON 1
#else
#define PPDB_KERNEL_HAVE_NEON 0
#endif

namespace ppdb::violation::kernel {

/// A dispatch target. kScalar is always compiled in; the SIMD targets
/// exist when the build architecture provides them (see the macros above)
/// and are eligible only when the host CPU supports them at runtime.
enum class Target {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// "scalar", "avx2" or "neon".
std::string_view TargetName(Target target);

/// The targets compiled into this binary, scalar first.
std::vector<Target> CompiledTargets();

/// True iff `target` is compiled in and the host CPU can execute it.
bool TargetSupported(Target target);

/// The target the dispatched kernels will use: a ForceTarget override if
/// one is active, else the PPDB_KERNEL_DISPATCH environment variable
/// ("scalar" | "avx2" | "neon" | "auto", read once and cached), else the
/// widest supported target. Falls back to scalar, never fails.
Target SelectedTarget();

/// Pins dispatch to `target` (tests, benchmarks, operational overrides).
/// kInvalidArgument when the target is not compiled in or the host cannot
/// execute it. Takes effect for every subsequent kernel call.
Status ForceTarget(Target target);

/// Clears a ForceTarget override; dispatch returns to env/auto selection.
void ClearForcedTarget();

/// Re-reads PPDB_KERNEL_DISPATCH (tests mutate the environment and need
/// the cached value refreshed; production reads it once).
void ReloadEnvForTest();

/// One batch of comparable (preference, policy) pairs in SoA form. All
/// arrays have length `n`; entry j holds the pair for policy tuple j.
///
/// `active` is 0 for pairs the caller excluded (data-scoped attributes the
/// provider does not supply, unstated purposes under
/// `implicit_zero_preferences = false`) and -1 (all bits) for live pairs.
/// Inactive lanes produce diff = 0 and conf = +0.0 — exactly what the
/// pair-at-a-time path produces by skipping them, since Eq. 15 adds their
/// contribution as zero.
struct ConfInput {
  const int32_t* pref_v = nullptr;  ///< preference levels, V
  const int32_t* pref_g = nullptr;  ///< preference levels, G
  const int32_t* pref_r = nullptr;  ///< preference levels, R
  const int32_t* pol_v = nullptr;   ///< policy levels, V
  const int32_t* pol_g = nullptr;   ///< policy levels, G
  const int32_t* pol_r = nullptr;   ///< policy levels, R
  const double* attr_sens = nullptr;  ///< Σ^a per tuple (purpose-resolved)
  const double* sens_val = nullptr;   ///< s_i^a per tuple
  const double* sens_v = nullptr;     ///< s_i^a[V] per tuple
  const double* sens_g = nullptr;     ///< s_i^a[G] per tuple
  const double* sens_r = nullptr;     ///< s_i^a[R] per tuple
  const int32_t* active = nullptr;    ///< 0 = skip, -1 = live
};

/// Kernel outputs, length `n`. `conf[j]` is conf(pref_j, Pol_j) (Eq. 14)
/// accumulated in the fixed V, G, R dimension order; the per-dimension
/// diffs (Eq. 12) let the caller reconstruct the full per-dimension
/// `ConflictBreakdown` (incidents, breadth, depth) for exceeding pairs.
struct ConfOutput {
  int32_t* diff_v = nullptr;
  int32_t* diff_g = nullptr;
  int32_t* diff_r = nullptr;
  double* conf = nullptr;
};

/// Evaluates Eqs. 12–14 for `n` pairs; returns true iff some active pair
/// has a positive diff on some dimension (the Def. 1 existence condition
/// for this batch).
bool ConfKernel(const ConfInput& in, const ConfOutput& out, size_t n);

/// Direct (non-dispatched) entry points, for equivalence tests and
/// microbenchmarks. Calling a SIMD entry point on an unsupported host is
/// undefined; check TargetSupported first.
bool ConfKernelScalar(const ConfInput& in, const ConfOutput& out, size_t n);
#if PPDB_KERNEL_HAVE_AVX2
bool ConfKernelAvx2(const ConfInput& in, const ConfOutput& out, size_t n);
#endif
#if PPDB_KERNEL_HAVE_NEON
bool ConfKernelNeon(const ConfInput& in, const ConfOutput& out, size_t n);
#endif

/// diff (Eq. 12) alone, batched: diff[j] = max(policy[j] - pref[j], 0).
/// The standalone form backs the kernel microbenchmarks and metric
/// backends that need raw exceedances without severity weighting.
void DiffKernel(const int32_t* pref, const int32_t* policy, int32_t* diff,
                size_t n);
void DiffKernelScalar(const int32_t* pref, const int32_t* policy,
                      int32_t* diff, size_t n);
#if PPDB_KERNEL_HAVE_AVX2
void DiffKernelAvx2(const int32_t* pref, const int32_t* policy, int32_t* diff,
                    size_t n);
#endif
#if PPDB_KERNEL_HAVE_NEON
void DiffKernelNeon(const int32_t* pref, const int32_t* policy, int32_t* diff,
                    size_t n);
#endif

/// Reusable per-thread buffers for one provider row (pref-side inputs and
/// kernel outputs), sized to the policy tuple count. Resize keeps
/// capacity across providers so the hot loop does not allocate.
struct RowScratch {
  std::vector<int32_t> pref_v, pref_g, pref_r;
  std::vector<int32_t> active;
  std::vector<uint8_t> implicit;
  std::vector<int32_t> diff_v, diff_g, diff_r;
  std::vector<double> conf;

  void Resize(size_t n) {
    pref_v.resize(n);
    pref_g.resize(n);
    pref_r.resize(n);
    active.resize(n);
    implicit.resize(n);
    diff_v.resize(n);
    diff_g.resize(n);
    diff_r.resize(n);
    conf.resize(n);
  }

  ConfOutput Output() {
    return ConfOutput{diff_v.data(), diff_g.data(), diff_r.data(),
                      conf.data()};
  }
};

}  // namespace ppdb::violation::kernel

#endif  // PPDB_VIOLATION_KERNEL_SEVERITY_KERNEL_H_
