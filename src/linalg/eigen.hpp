// Hermitian eigensolver (cyclic complex Jacobi) plus spectral utilities:
// top eigenvalue via the Lanczos solver in linalg/lanczos.hpp, PSD matrix
// square root, trace norm.
//
// These are the numerical workhorses behind trace distance, fidelity, and
// the exact worst-case-prover optimizer (which maximizes acceptance over all
// quantum proofs by computing the top eigenvalue of the acceptance operator).
#pragma once

#include <functional>
#include <vector>

#include "linalg/aligned.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector.hpp"

namespace dqma::linalg {

/// Result of a Hermitian eigendecomposition A = V diag(values) V^dagger.
struct EigenSystem {
  std::vector<double> values;  ///< ascending order
  CMat vectors;                ///< column k is the eigenvector of values[k]
};

/// Full eigendecomposition of a Hermitian matrix by cyclic complex Jacobi
/// sweeps. Throws if `a` is not (numerically) Hermitian. Intended for
/// dimensions up to a few hundred; complexity O(d^3) per sweep.
EigenSystem eigh(const CMat& a);

/// The single operator interface the iterative spectral routines consume.
/// Dense matrices and matrix-free callbacks (the exact engine's acceptance
/// operator on proof spaces too large to materialize) both implement it,
/// so the Lanczos solver in linalg/lanczos.hpp is written once against
/// apply() + dim() and works for both. Non-owning adapters: the wrapped matrix/callback must
/// outlive the operator.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  /// Dimension of the (square) operator.
  virtual int dim() const = 0;
  /// y = A x.
  virtual CVec apply(const CVec& x) const = 0;
  /// out = A x, reusing out's storage when already sized. Iterative solvers
  /// call this so per-matvec allocations amortize to once per solve;
  /// backends that can, override it allocation-free.
  virtual void apply_into(const CVec& x, CVec& out) const { out = apply(x); }
};

/// Dense-matrix operator. At construction it resolves the SIMD dispatch
/// level (on the constructing thread — see linalg/simd.hpp) and, when a
/// vector level is active, packs the matrix rows to split-complex SoA
/// once; apply() then runs the matvec as one vectorized dot per row.
/// Repeated applications (iterative eigensolvers) amortize the single pack.
/// Each output entry is one full serial dot, so results are thread-count
/// invariant at any fixed dispatch level.
///
/// apply_into() reuses a per-operator split-complex input scratch, so an
/// iterative solve allocates once per solve instead of once per matvec.
/// Consequently a single DenseOperator must not be applied from two threads
/// concurrently (solvers are serial per operator; distinct operators are
/// fine).
class DenseOperator : public LinearOperator {
 public:
  explicit DenseOperator(const CMat& a);

  int dim() const override;
  CVec apply(const CVec& x) const override;
  void apply_into(const CVec& x, CVec& out) const override;

 private:
  const CMat& a_;
  simd::Level level_;
  bool packed_ = false;
  SplitBuffer pack_;        ///< row-major SoA copy of a_ when packed_
  mutable SplitBuffer xs_;  ///< reusable split-complex copy of the input
};

/// Matrix-free operator from an apply callback.
class CallbackOperator : public LinearOperator {
 public:
  CallbackOperator(std::function<CVec(const CVec&)> apply, int dim);

  int dim() const override;
  CVec apply(const CVec& x) const override;

 private:
  std::function<CVec(const CVec&)> apply_;
  int dim_;
};

/// Largest eigenvalue of a Hermitian PSD operator, by the deterministic
/// Lanczos solver in linalg/lanczos.hpp at every dimension. `max_iters`
/// bounds work; `tol` is the residual threshold
/// (||A x - theta x|| <= tol * max(1, theta)).
double max_eigenvalue_psd(const LinearOperator& op, int max_iters = 2000,
                          double tol = 1e-10);

/// Top eigenpair of a Hermitian PSD operator via the same solver:
/// returns the eigenvalue and writes the (normalized) eigenvector into
/// `vec`. The cheap replacement for a full eigh() when only the dominant
/// direction is needed (alternating-optimization inner loops).
double top_eigenpair_psd(const LinearOperator& op, CVec& vec,
                         int max_iters = 2000, double tol = 1e-12);

/// Convenience overload: wraps `a` in a DenseOperator.
double max_eigenvalue_psd(const CMat& a, int max_iters = 2000,
                          double tol = 1e-10);

/// Convenience overload: wraps `a` in a DenseOperator.
double top_eigenpair_psd(const CMat& a, CVec& vec, int max_iters = 2000,
                         double tol = 1e-12);

/// Hermitian square root of a PSD matrix (eigenvalues clamped at 0).
CMat sqrt_psd(const CMat& a);

/// Trace norm ||A||_1 = sum of singular values. For Hermitian input this is
/// the sum of |eigenvalues|; for general input it is computed from A^dagger A.
double trace_norm(const CMat& a);

}  // namespace dqma::linalg
