#include "support/power_iteration.hpp"

#include <algorithm>
#include <cmath>

namespace dqma::test {

using linalg::Complex;
using linalg::CVec;
using linalg::SpectralStats;

namespace {

/// The library's Lanczos start vector recipe (linalg/lanczos.cpp): equal
/// superposition with varying phases, no RNG.
CVec spectral_start_vector(int n) {
  CVec x(n);
  for (int i = 0; i < n; ++i) {
    const double angle = 0.7 * static_cast<double>(i) + 0.3;
    x[i] = Complex{std::cos(angle), std::sin(angle)};
  }
  x.normalize();
  return x;
}

/// The library's stop rule: residual below tol relative to the eigenvalue
/// scale.
bool residual_converged(double resid, double theta, double tol) {
  return resid <= tol * std::max(1.0, std::abs(theta));
}

}  // namespace

double power_iterate(const linalg::LinearOperator& op,
                     const linalg::SpectralOptions& opts, CVec* vec_out,
                     SpectralStats* stats) {
  SpectralStats local;
  const int dim = op.dim();
  if (dim == 0) {
    local.converged = true;
    if (vec_out != nullptr) {
      *vec_out = CVec();
    }
    if (stats != nullptr) {
      *stats = local;
    }
    return 0.0;
  }
  // One operator application per iteration: iteration k's Rayleigh product
  // is reused as iteration k+1's image.
  CVec x = spectral_start_vector(dim);
  CVec image(dim);
  op.apply_into(x, image);
  ++local.matvecs;
  double lambda = 0.0;
  for (int it = 0; it < opts.max_iters; ++it) {
    local.iterations = it + 1;
    const double norm = image.norm();
    if (norm < 1e-300) {
      // The operator annihilates the iterate; spectrum is ~0 on it.
      local.converged = true;
      lambda = 0.0;
      break;
    }
    const double inv = 1.0 / norm;
    for (int i = 0; i < dim; ++i) {
      x[i] = image[i] * inv;
    }
    op.apply_into(x, image);
    ++local.matvecs;
    const double next = std::real(x.dot(image));
    double resid_sq = 0.0;
    for (int i = 0; i < dim; ++i) {
      resid_sq += std::norm(image[i] - next * x[i]);
    }
    const bool done =
        std::abs(next - lambda) <= opts.tol * std::max(1.0, next) &&
        residual_converged(std::sqrt(resid_sq), next, opts.tol);
    lambda = next;
    if (done && it > 2) {
      local.converged = true;
      break;
    }
  }
  if (vec_out != nullptr) {
    *vec_out = x;
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return lambda;
}

}  // namespace dqma::test
