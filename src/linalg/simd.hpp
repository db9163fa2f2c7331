// Runtime-dispatched SIMD kernel engine over split-complex (SoA) arrays.
//
// Levels. Three dispatch levels exist: kScalar (plain double loops — the
// cross-validated reference, byte-identical to the pre-SIMD engine),
// kAvx2 (256-bit FMA) and kAvx512 (512-bit). The level is resolved once
// per process — CPU feature detection, overridable by the DQMA_SIMD env
// var and the --simd CLI flag — and kernels receive it explicitly.
//
// Determinism contract (extends the repo-wide one in sweep/parallel.hpp):
// each dispatch level is individually deterministic. Every kernel fixes
// its operation order as a pure function of the problem shape — vector
// lane partials are combined in ascending lane order, then the scalar
// tail in ascending index order, on one code path per level — so for a
// fixed level the results are byte-stable across runs, hosts with that
// level, and the kernel-thread axis. Different levels differ by FMA
// contraction and summation width (~1 ulp per reduction step); they are
// cross-validated within tolerance, never byte-compared.
//
// Thread propagation. active() consults a thread-local override
// (LevelScope) before the process-global level. Kernel-pool worker
// threads never see the caller's override, so kernels resolve the level
// ONCE on the calling thread and capture the resolved value into their
// parallel_for closures. Library code should follow the same rule.
#pragma once

#include <complex>
#include <string>

#include "linalg/aligned.hpp"

namespace dqma::linalg {
class CMat;
}  // namespace dqma::linalg

namespace dqma::linalg::simd {

using Complex = std::complex<double>;

/// Dispatch level, ordered: every level implies support for the lower ones.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar" | "avx2" | "avx512".
const char* level_name(Level level);

/// Parses a level name ("native" maps to detect_best()); throws
/// std::invalid_argument on anything else.
Level parse_level(const std::string& name);

/// Best level this CPU supports (kScalar on non-x86 builds).
Level detect_best();

/// True when this host can execute `level`.
bool is_supported(Level level);

/// `level`, lowered to the best supported level if the host lacks it.
Level clamp_to_supported(Level level);

/// The level kernels should use *on this thread*: the innermost LevelScope
/// override if one is active, else the process-global level (lazily
/// resolved from DQMA_SIMD / CPU detection on first use). Resolve on the
/// calling thread before entering parallel_for — never on pool workers.
Level active();

/// Sets the process-global level; throws if the host does not support it.
void set_global_level(Level level);

/// Startup resolution for mains: applies `cli_value` (the --simd flag,
/// may be empty) over the DQMA_SIMD env var over CPU detection, throwing
/// std::invalid_argument with a readable message on unknown names or
/// unsupported levels — so misconfiguration fails at startup, not inside
/// a kernel.
void resolve_startup(const std::string& cli_value);

/// RAII thread-local level override (tests, the roofline bench). Only
/// affects active() on the constructing thread; throws if unsupported.
class LevelScope {
 public:
  explicit LevelScope(Level level);
  ~LevelScope();
  LevelScope(const LevelScope&) = delete;
  LevelScope& operator=(const LevelScope&) = delete;

 private:
  int prev_;
};

// ---------------------------------------------------------------------------
// Kernels. All take split re/im double arrays; callers deinterleave their
// interleaved buffers into SplitBuffer scratch and interleave back.
// ---------------------------------------------------------------------------

/// dst_re/dst_im[i] = src[i].real()/.imag() for i in [0, n).
void deinterleave(Level level, const Complex* src, long long n, double* re,
                  double* im);

/// dst[i] = {re[i], im[i]} for i in [0, n).
void interleave(Level level, const double* re, const double* im, long long n,
                Complex* dst);

/// y += (ar + i*ai) * x over split arrays, ascending index order.
void axpy(Level level, double ar, double ai, const double* xr,
          const double* xi, double* yr, double* yi, long long n);

/// sum_i a_i * b_i (conj_a applies conj to a): fixed-width lane partials
/// combined in ascending lane order, then the scalar tail ascending.
Complex dot(Level level, bool conj_a, const double* ar, const double* ai,
            const double* br, const double* bi, long long n);

/// A local operator packed to column-major split storage: entry (o, s)
/// lives at [s * rows + o], so block_apply reads output-contiguous
/// columns. `nnz` feeds the density heuristic — permutation-like
/// operators are faster through the scalar zero-skip path than through
/// dense vector arithmetic.
struct PackedOp {
  AlignedVector<double> re;
  AlignedVector<double> im;
  long long rows = 0;
  long long cols = 0;
  long long nnz = 0;

  /// Vector arithmetic beats the scalar zero-skip loop once at least a
  /// quarter of the entries are nonzero.
  bool dense_enough() const { return nnz * 4 >= rows * cols; }
};

/// Packs m(o, s) = op(o, s), transposed and/or conjugated first. The two
/// flags cover all four operator orientations the local-ops kernels need
/// (apply, apply-adjoint, right-apply, right-apply-adjoint).
PackedOp pack_operator(const CMat& op, bool transpose, bool conjugate);

/// out[o] = sum_s m(o, s) * in[s] for a packed block operator; zeroes
/// `out` first. Level-generic by construction: it walks s in ascending
/// order calling axpy on column s, so every out[o] sees the same
/// operation order at any thread count, and the per-level rounding comes
/// entirely from the axpy variant. Exact-zero in[s] are skipped (basis
/// states), which cannot change any sum.
void block_apply(Level level, const PackedOp& m, const double* in_re,
                 const double* in_im, double* out_re, double* out_im);

}  // namespace dqma::linalg::simd
