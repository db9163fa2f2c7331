#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/require.hpp"

namespace dqma::linalg {

using util::require;

namespace {

/// Deterministic start vector: equal superposition with varying phases, so it overlaps any eigenvector
/// with overwhelming probability. Fixed recipe — no RNG — so solves are
/// reproducible across runs, threads, and shards.
CVec spectral_start_vector(int n) {
  CVec x(n);
  for (int i = 0; i < n; ++i) {
    const double angle = 0.7 * static_cast<double>(i) + 0.3;
    x[i] = Complex{std::cos(angle), std::sin(angle)};
  }
  x.normalize();
  return x;
}

/// The stop rule: an eigenpair estimate (theta, x) is accepted when the
/// residual ||A x - theta x|| clears tol relative to the eigenvalue scale.
/// Lanczos bounds the residual by beta * |y_last|.
bool residual_converged(double resid, double theta, double tol) {
  return resid <= tol * std::max(1.0, std::abs(theta));
}

/// y += a * x, serial (determinism: fixed order, calling thread only).
void axpy(Complex a, const CVec& x, CVec& y) {
  const int n = x.dim();
  for (int i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

/// Sturm-sequence count: number of eigenvalues of the symmetric tridiagonal
/// (alpha, beta) strictly below x, via the LDL^T pivot signs. IEEE inf/0
/// propagation keeps the recurrence well-defined when a pivot collapses.
int sturm_count_below(const std::vector<double>& alpha,
                      const std::vector<double>& beta, double x) {
  int count = 0;
  double d = 1.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double off = (i == 0) ? 0.0 : beta[i - 1] * beta[i - 1] / d;
    d = alpha[i] - x - off;
    if (d == 0.0) {
      d = -1e-300;
    }
    if (d < 0.0) {
      ++count;
    }
  }
  return count;
}

/// Unit top eigenvector of the symmetric tridiagonal (alpha, beta) for the
/// (already converged) eigenvalue theta, by two steps of inverse iteration.
/// The shifted solve is Gaussian elimination with partial pivoting on the
/// tridiagonal (LAPACK dgtsv's pivoting pattern, which fills in a second
/// superdiagonal); near-singular pivots — expected, theta is an eigenvalue —
/// are replaced by a tiny scale-relative value, which just boosts the
/// amplification inverse iteration relies on.
std::vector<double> tridiag_top_eigenvector(const std::vector<double>& alpha,
                                            const std::vector<double>& beta,
                                            double theta) {
  const std::size_t m = alpha.size();
  if (m == 1) {
    return {1.0};
  }
  double scale = 1.0;
  for (const double a : alpha) scale = std::max(scale, std::abs(a));
  for (const double b : beta) scale = std::max(scale, std::abs(b));
  const double tiny = 1e-18 * scale;

  std::vector<double> y(m, 1.0 / std::sqrt(static_cast<double>(m)));
  std::vector<double> dl(m - 1), d(m), du(m - 1), du2(m >= 2 ? m - 2 : 0);
  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i < m - 1; ++i) {
      dl[i] = beta[i];
      du[i] = beta[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      d[i] = alpha[i] - theta;
    }
    std::fill(du2.begin(), du2.end(), 0.0);
    std::vector<double> b = y;
    for (std::size_t i = 0; i + 1 < m; ++i) {
      if (std::abs(d[i]) < std::abs(dl[i])) {
        // Interchange rows i and i+1.
        const double fact = d[i] / dl[i];
        d[i] = dl[i];
        const double tmp = d[i + 1];
        d[i + 1] = du[i] - fact * tmp;
        if (i + 2 < m) {
          du2[i] = du[i + 1];
          du[i + 1] = -fact * du[i + 1];
        }
        du[i] = tmp;
        std::swap(b[i], b[i + 1]);
        b[i + 1] -= fact * b[i];
      } else {
        if (d[i] == 0.0) {
          d[i] = tiny;
        }
        const double fact = dl[i] / d[i];
        d[i + 1] -= fact * du[i];
        b[i + 1] -= fact * b[i];
      }
    }
    if (d[m - 1] == 0.0) {
      d[m - 1] = tiny;
    }
    // Back substitution through the two superdiagonals.
    b[m - 1] /= d[m - 1];
    b[m - 2] = (b[m - 2] - du[m - 2] * b[m - 1]) / d[m - 2];
    for (std::size_t ii = m; ii-- > 2;) {
      const std::size_t i = ii - 2;
      b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i];
    }
    double nrm_sq = 0.0;
    for (const double v : b) nrm_sq += v * v;
    const double nrm = std::sqrt(nrm_sq);
    if (!std::isfinite(nrm) || nrm == 0.0) {
      // Degenerate solve: fall back to the last basis direction, which makes
      // the beta * |y_last| residual bound a conservative overestimate.
      std::fill(y.begin(), y.end(), 0.0);
      y[m - 1] = 1.0;
      return y;
    }
    for (std::size_t i = 0; i < m; ++i) {
      y[i] = b[i] / nrm;
    }
  }
  return y;
}

}  // namespace

double tridiag_max_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta) {
  const std::size_t m = alpha.size();
  require(m >= 1 && beta.size() + 1 == m,
          "tridiag_max_eigenvalue: inconsistent band sizes");
  if (m == 1) {
    return alpha[0];
  }
  // Gershgorin bracket, slightly inflated so the upper end always counts
  // every eigenvalue strictly below it.
  double lo = alpha[0];
  double hi = alpha[0];
  for (std::size_t i = 0; i < m; ++i) {
    const double radius = (i > 0 ? std::abs(beta[i - 1]) : 0.0) +
                          (i + 1 < m ? std::abs(beta[i]) : 0.0);
    lo = std::min(lo, alpha[i] - radius);
    hi = std::max(hi, alpha[i] + radius);
  }
  hi += 1e-12 * std::max(1.0, std::abs(hi));
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;  // bracket reached machine resolution
    }
    if (sturm_count_below(alpha, beta, mid) >= static_cast<int>(m)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Deterministic Lanczos with full reorthogonalization. Per step: one
/// operator application, two CGS passes against the whole stored basis in
/// ascending index order (always two — no norm-triggered branching, so the
/// instruction stream is input-independent), then the top Ritz pair of the
/// tridiagonal and the standard beta * |y_last| residual bound. Breakdown
/// (beta ~ 0) means the Krylov space is exhausted and the tridiagonal is
/// exact — rank-deficient and tiny-dimension operators converge that way,
/// in at most dim steps.
double top_eigenvalue_psd(const LinearOperator& op, const SpectralOptions& opts,
                          CVec* vec_out, SpectralStats* stats) {
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
  std::vector<CVec> basis;
  basis.push_back(spectral_start_vector(dim));
  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples basis[j] and basis[j + 1]
  std::vector<double> ritz;  // top eigenvector of the current tridiagonal
  CVec w(dim);
  const int m_max =
      std::max(1, std::min({dim, opts.max_iters, kMaxLanczosBasis}));
  double theta = 0.0;
  for (int j = 0; j < m_max; ++j) {
    op.apply_into(basis[static_cast<std::size_t>(j)], w);
    ++local.matvecs;
    double aj = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < basis.size(); ++i) {
        const Complex h = basis[i].dot(w);
        if (static_cast<int>(i) == j) {
          aj += h.real();
        }
        axpy(-h, basis[i], w);
      }
    }
    alpha.push_back(aj);
    local.iterations = j + 1;
    const double bj = w.norm();
    theta = tridiag_max_eigenvalue(alpha, beta);
    ritz = tridiag_top_eigenvector(alpha, beta, theta);
    if (residual_converged(bj * std::abs(ritz.back()), theta, opts.tol) ||
        bj <= 1e-14 * std::max(1.0, std::abs(theta))) {
      local.converged = true;
      break;
    }
    if (j + 1 >= m_max) {
      break;
    }
    beta.push_back(bj);
    basis.push_back(w * Complex{1.0 / bj, 0.0});
  }
  if (vec_out != nullptr) {
    CVec x(dim);
    for (std::size_t i = 0; i < ritz.size(); ++i) {
      axpy(Complex{ritz[i], 0.0}, basis[i], x);
    }
    const double nrm = x.norm();
    // The Ritz combination of an orthonormal basis with a unit coefficient
    // vector has norm ~1; guard the pathological collapse anyway.
    *vec_out = (nrm > 1e-12) ? x * Complex{1.0 / nrm, 0.0} : basis.front();
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return theta;
}

}  // namespace dqma::linalg
