// The library's one top-eigenvalue solver: deterministic Lanczos with full
// reorthogonalization against the stored basis, at every dimension. Its
// breakdown rule ends tiny and rank-deficient solves exactly, so it needs
// no small-dimension fallback. (Power iteration survives only as a test
// oracle, tests/support/power_iteration.hpp.)
//
// Determinism contract (same as the SIMD kernels, linalg/simd.hpp): for a
// fixed dispatch level the solver is byte-identical across the kernel-thread
// axis. Everything that is solver-local — the start vector, the
// reorthogonalization passes, the tridiagonal bisection/inverse iteration —
// runs serially on the calling thread in a fixed order; the only parallel
// work is the operator application itself, which is thread-count invariant
// by the LinearOperator backends' own contract.
#pragma once

#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/vector.hpp"

namespace dqma::linalg {

/// Per-solve counters every spectral routine fills in, exposed so callers
/// (benchmarks, the exact engine) can record matvec counts as JSON metrics.
struct SpectralStats {
  long long matvecs = 0;  ///< LinearOperator::apply_into invocations
  int iterations = 0;     ///< Lanczos steps
  bool converged = false;
};

/// Stopping thresholds for top_eigenvalue_psd.
struct SpectralOptions {
  int max_iters = 2000;
  double tol = 1e-10;  ///< residual threshold: ||A x - theta x|| <= tol * max(1, theta)
};

/// Lanczos basis cap: full reorthogonalization stores the basis, so memory
/// is (cap * dim) complex entries. Any PSD operator met in practice
/// converges at 1e-9 residual in far fewer steps.
inline constexpr int kMaxLanczosBasis = 350;

/// Largest eigenvalue (and optionally the matching normalized Ritz vector)
/// of a Hermitian PSD operator, by Lanczos; fills *stats when given. This
/// is the single entry point the max_eigenvalue_psd / top_eigenpair_psd
/// wrappers route through.
double top_eigenvalue_psd(const LinearOperator& op, const SpectralOptions& opts,
                          CVec* vec_out = nullptr,
                          SpectralStats* stats = nullptr);

/// Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `alpha` and off-diagonal `beta` (beta.size() == alpha.size() - 1), by
/// bisection on the Sturm-sequence eigenvalue count inside the Gershgorin
/// bracket. Deterministic; accurate to ~1e-15 relative.
double tridiag_max_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta);

}  // namespace dqma::linalg
