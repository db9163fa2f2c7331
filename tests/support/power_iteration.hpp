// Power iteration with a residual-augmented stop rule — the test oracle for
// the library's Lanczos solver (linalg/lanczos.hpp).
//
// It certifies the same quantity as Lanczos (the residual
// ||A x - theta x|| <= tol * max(1, theta)) by an independent route, one
// operator application per step, so tests can cross-check eigenvalues and
// compare matvec counts. It starts from the library's deterministic start
// vector, so counts are reproducible.
#pragma once

#include "linalg/eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/vector.hpp"

namespace dqma::test {

/// Largest eigenvalue (and optionally the matching unit iterate) of a
/// Hermitian PSD operator by power iteration. Convergence needs BOTH a small
/// Rayleigh-quotient delta and a small true residual, so near-degenerate
/// spectra (clustered top eigenvalues) cannot trip a spurious early exit.
/// Fills *stats (matvecs, iterations, converged) when given.
double power_iterate(const linalg::LinearOperator& op,
                     const linalg::SpectralOptions& opts,
                     linalg::CVec* vec_out = nullptr,
                     linalg::SpectralStats* stats = nullptr);

}  // namespace dqma::test
