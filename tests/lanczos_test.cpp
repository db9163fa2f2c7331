// Tests for the deterministic Lanczos eigensolver (linalg/lanczos.hpp):
// agreement with the dense Jacobi eigh at 1e-9, degenerate/rank-deficient
// and near-degenerate PSD operators at every dimension, dimension edges,
// byte-determinism across the kernel-thread axis, and the matvec-count
// advantage over the power-iteration oracle (tests/support), whose
// residual-augmented stop rule is checked on a gap-1e-12 two-cluster
// spectrum.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "dqma/exact_runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/simd.hpp"
#include "quantum/random.hpp"
#include "support/power_iteration.hpp"
#include "support/test_support.hpp"
#include "sweep/parallel.hpp"

namespace {

using dqma::linalg::CallbackOperator;
using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::linalg::DenseOperator;
using dqma::linalg::SpectralOptions;
using dqma::linalg::SpectralStats;
using dqma::linalg::top_eigenvalue_psd;
using dqma::protocol::ExactEqPathAnalyzer;
using dqma::test::power_iterate;
using dqma::test::Rng;
using dqma::test::SeededTest;
namespace simd = dqma::linalg::simd;

SpectralOptions options_for(int max_iters = 4000, double tol = 1e-10) {
  SpectralOptions opts;
  opts.max_iters = max_iters;
  opts.tol = tol;
  return opts;
}

/// The power-iteration oracle on an analyzer's acceptance operator, in the
/// same operator form worst_case_accept solves.
double power_accept(const ExactEqPathAnalyzer& analyzer,
                    const SpectralOptions& opts, SpectralStats* stats) {
  if (analyzer.dense()) {
    return power_iterate(DenseOperator(analyzer.acceptance_operator()), opts,
                         nullptr, stats);
  }
  const CallbackOperator op(
      [&analyzer](const CVec& psi) { return analyzer.apply_acceptance(psi); },
      static_cast<int>(analyzer.proof_dim()));
  return power_iterate(op, opts, nullptr, stats);
}

class LanczosTest : public SeededTest {};

TEST_F(LanczosTest, MatchesEighOnRandomDensities) {
  for (const int dim : {3, 8, 17, 24, 40}) {
    for (int trial = 0; trial < 3; ++trial) {
      const CMat rho = dqma::quantum::random_density(dim, rng());
      const double exact = dqma::linalg::eigh(rho).values.back();
      const DenseOperator op(rho);
      SpectralStats stats;
      const double via_lanczos =
          top_eigenvalue_psd(op, options_for(), nullptr, &stats);
      EXPECT_NEAR(via_lanczos, exact, 1e-9) << "dim " << dim;
      EXPECT_TRUE(stats.converged) << "dim " << dim;
      // The default entry point agrees too.
      EXPECT_NEAR(dqma::linalg::max_eigenvalue_psd(rho), exact, 1e-9);
    }
  }
}

TEST_F(LanczosTest, RitzVectorIsAnEigenvector) {
  const CMat rho = dqma::quantum::random_density(32, rng());
  const DenseOperator op(rho);
  CVec vec;
  SpectralStats stats;
  const double theta = top_eigenvalue_psd(op, options_for(), &vec, &stats);
  EXPECT_NEAR(vec.norm(), 1.0, 1e-12);
  const CVec image = op.apply(vec);
  EXPECT_LT(image.linf_distance(vec * Complex{theta, 0.0}), 1e-8);
}

TEST_F(LanczosTest, RankDeficientAndDegenerateOperators) {
  // Rank-3 mixture in a 24-dim space: Lanczos exhausts the (tiny) Krylov
  // space and must still match eigh.
  const auto states = dqma::test::haar_states(24, 3, rng());
  CMat low_rank(24, 24);
  for (const CVec& v : states) {
    CMat term = CMat::projector(v);
    term *= Complex{1.0 / 3.0, 0.0};
    low_rank += term;
  }
  const double exact = dqma::linalg::eigh(low_rank).values.back();
  SpectralStats stats;
  const double via_lanczos = top_eigenvalue_psd(
      DenseOperator(low_rank), options_for(), nullptr, &stats);
  EXPECT_NEAR(via_lanczos, exact, 1e-9);
  EXPECT_TRUE(stats.converged);

  // Degenerate top eigenvalue (multiplicity 3).
  const CMat basis = dqma::linalg::eigh(dqma::quantum::random_density(20, rng())).vectors;
  std::vector<Complex> diag(20, Complex{0.25, 0.0});
  diag[0] = diag[7] = diag[13] = Complex{1.0, 0.0};
  const CMat degenerate =
      (basis * CMat::diagonal(diag)).times_adjoint(basis);
  const double via_degenerate = top_eigenvalue_psd(
      DenseOperator(degenerate), options_for());
  EXPECT_NEAR(via_degenerate, 1.0, 1e-9);

  // The zero operator: annihilation converges via Krylov breakdown.
  const CMat zero(16, 16);
  SpectralStats zero_stats;
  const double via_zero = top_eigenvalue_psd(
      DenseOperator(zero), options_for(), nullptr, &zero_stats);
  EXPECT_NEAR(via_zero, 0.0, 1e-12);
  EXPECT_TRUE(zero_stats.converged);

  // Near-degenerate top pair {1, 1 - 1e-4} over a 0.3 bulk, in seeded
  // random bases, at tiny dims: the 1e-4 gap stalls power iteration far
  // above 1e-9 within the default iteration budget, while Lanczos exhausts
  // the Krylov space in at most dim steps.
  for (const int dim : {2, 8, 16}) {
    std::vector<Complex> near_diag(static_cast<std::size_t>(dim),
                                   Complex{0.3, 0.0});
    near_diag[0] = Complex{1.0, 0.0};
    near_diag[1] = Complex{1.0 - 1e-4, 0.0};
    for (const std::uint64_t seed : {1, 2, 3}) {
      Rng basis_rng(seed);
      const CMat u = dqma::quantum::haar_unitary(dim, basis_rng);
      const CMat near = (u * CMat::diagonal(near_diag)).times_adjoint(u);
      const double exact_top = dqma::linalg::eigh(near).values.back();
      EXPECT_NEAR(dqma::linalg::max_eigenvalue_psd(near), exact_top, 1e-9)
          << "dim " << dim << " seed " << seed;
      CVec vec;
      EXPECT_NEAR(dqma::linalg::top_eigenpair_psd(near, vec), exact_top, 1e-9)
          << "dim " << dim << " seed " << seed;
      // The wrappers' defaults: tol 1e-10 (max_eigenvalue_psd) and 1e-12
      // (top_eigenpair_psd), 2000 iterations.
      for (const double tol : {1e-10, 1e-12}) {
        SpectralStats near_stats;
        top_eigenvalue_psd(DenseOperator(near), options_for(2000, tol),
                           nullptr, &near_stats);
        EXPECT_TRUE(near_stats.converged)
            << "dim " << dim << " seed " << seed << " tol " << tol;
        EXPECT_LE(near_stats.matvecs, dim);
      }
    }
  }
}

TEST_F(LanczosTest, DimensionEdges) {
  // The library solver and the power-iteration oracle on dims 0 and 1.
  const CallbackOperator empty([](const CVec& x) { return x; }, 0);
  SpectralStats stats;
  EXPECT_EQ(top_eigenvalue_psd(empty, options_for(), nullptr, &stats), 0.0);
  EXPECT_TRUE(stats.converged);
  SpectralStats power_stats;
  EXPECT_EQ(power_iterate(empty, options_for(), nullptr, &power_stats), 0.0);
  EXPECT_TRUE(power_stats.converged);

  CMat single(1, 1);
  single(0, 0) = Complex{0.7, 0.0};
  EXPECT_NEAR(top_eigenvalue_psd(DenseOperator(single), options_for()), 0.7,
              1e-12);
  EXPECT_NEAR(power_iterate(DenseOperator(single), options_for()), 0.7,
              1e-12);
}

TEST_F(LanczosTest, ByteDeterminismAcrossKernelThreads) {
  const CMat rho = dqma::quantum::random_density(64, rng());
  const std::vector<simd::Level> levels = {
      simd::Level::kScalar, simd::clamp_to_supported(simd::Level::kAvx2)};
  for (const simd::Level level : levels) {
    const simd::LevelScope level_scope(level);
    std::vector<std::vector<double>> runs;
    std::vector<long long> matvecs;
    for (const int threads : {1, 3, 8}) {
      const dqma::sweep::KernelThreadScope thread_scope(threads);
      // The operator packs at construction under the active level; the
      // parallel row panels inside apply() are what the thread axis probes.
      const DenseOperator op(rho);
      CVec vec;
      SpectralStats stats;
      const double theta = top_eigenvalue_psd(
          op, options_for(), &vec, &stats);
      std::vector<double> bytes;
      bytes.push_back(theta);
      for (int i = 0; i < vec.dim(); ++i) {
        bytes.push_back(vec[i].real());
        bytes.push_back(vec[i].imag());
      }
      runs.push_back(std::move(bytes));
      matvecs.push_back(stats.matvecs);
    }
    for (std::size_t k = 1; k < runs.size(); ++k) {
      ASSERT_EQ(runs[k].size(), runs[0].size());
      EXPECT_EQ(std::memcmp(runs[k].data(), runs[0].data(),
                            runs[0].size() * sizeof(double)),
                0)
          << "thread-axis byte drift at level " << simd::level_name(level);
      EXPECT_EQ(matvecs[k], matvecs[0]);
    }
  }
}

TEST_F(LanczosTest, MatvecCountsBeatPowerIteration) {
  // Monotonicity on generic dense PSD operators...
  for (const int dim : {32, 64, 128}) {
    const CMat rho = dqma::quantum::random_density(dim, rng());
    const DenseOperator op(rho);
    SpectralStats lanczos_stats;
    SpectralStats power_stats;
    const double via_lanczos = top_eigenvalue_psd(
        op, options_for(20000, 1e-9), nullptr, &lanczos_stats);
    const double via_power =
        power_iterate(op, options_for(20000, 1e-9), nullptr, &power_stats);
    EXPECT_TRUE(lanczos_stats.converged);
    EXPECT_TRUE(power_stats.converged);
    EXPECT_NEAR(via_lanczos, via_power, 1e-9);
    EXPECT_LE(lanczos_stats.matvecs, power_stats.matvecs) << "dim " << dim;
  }
  // ...and the >= 3x advantage on acceptance operators of the kind the
  // table3_lower benchmarks solve: Haar endpoints on the r = 4 path (proof
  // dim 64), and the benchmarks' |0> vs 0.2|0> + sqrt(0.96)|1> endpoints at
  // d = 2, r = 2 and r = 3 (proof dims 4 and 16, dense) and d = 8, r = 3
  // (proof dim 4096, matrix-free).
  std::vector<ExactEqPathAnalyzer> analyzers;
  analyzers.emplace_back(dqma::test::reference_haar_state(2, 11),
                         dqma::test::reference_haar_state(2, 12), 4);
  for (const auto& [d, r, mode] :
       {std::tuple{2, 2, ExactEqPathAnalyzer::Mode::kAuto},
        std::tuple{2, 3, ExactEqPathAnalyzer::Mode::kAuto},
        std::tuple{8, 3, ExactEqPathAnalyzer::Mode::kMatrixFree}}) {
    CVec hy(d);
    hy[0] = Complex{0.2, 0.0};
    hy[1] = Complex{std::sqrt(1.0 - 0.04), 0.0};
    analyzers.emplace_back(CVec::basis(d, 0), hy, r, mode);
  }
  for (const ExactEqPathAnalyzer& analyzer : analyzers) {
    SpectralStats lanczos_stats;
    SpectralStats power_stats;
    const double via_lanczos =
        analyzer.worst_case_accept(options_for(20000, 1e-9), &lanczos_stats);
    const double via_power =
        power_accept(analyzer, options_for(20000, 1e-9), &power_stats);
    EXPECT_TRUE(lanczos_stats.converged);
    EXPECT_TRUE(power_stats.converged);
    EXPECT_NEAR(via_lanczos, via_power, 1e-9)
        << "proof dim " << analyzer.proof_dim();
    EXPECT_LE(3 * lanczos_stats.matvecs, power_stats.matvecs)
        << "proof dim " << analyzer.proof_dim();
  }
}

TEST_F(LanczosTest, PowerResidualRuleHandlesTwoClusterSpectrum) {
  // Top cluster {1, 1 - 1e-12} with a 0.999 decoy underneath: a
  // Rayleigh-delta-only rule could stop while the iterate still carried an
  // O(1e-4) decoy component (eigenvalue error far above 1e-9); the oracle's
  // residual check keeps iterating until the decoy is actually gone.
  std::vector<Complex> diag(32, Complex{0.3, 0.0});
  diag[0] = Complex{1.0, 0.0};
  diag[1] = Complex{1.0 - 1e-12, 0.0};
  diag[2] = Complex{0.999, 0.0};
  const CMat basis =
      dqma::linalg::eigh(dqma::quantum::random_density(32, rng())).vectors;
  const CMat two_cluster =
      (basis * CMat::diagonal(diag)).times_adjoint(basis);
  const DenseOperator op(two_cluster);
  SpectralStats power_stats;
  const double via_power =
      power_iterate(op, options_for(60000, 1e-10), nullptr, &power_stats);
  EXPECT_TRUE(power_stats.converged);
  EXPECT_NEAR(via_power, 1.0, 1e-9);
  // Lanczos needs orders of magnitude fewer applications on the same input.
  SpectralStats lanczos_stats;
  const double via_lanczos = top_eigenvalue_psd(
      op, options_for(20000, 1e-10), nullptr, &lanczos_stats);
  EXPECT_TRUE(lanczos_stats.converged);
  EXPECT_NEAR(via_lanczos, 1.0, 1e-9);
  EXPECT_LT(lanczos_stats.matvecs, 100);
  EXPECT_LT(10 * lanczos_stats.matvecs, power_stats.matvecs);
}

TEST_F(LanczosTest, ApplyIntoReusesStorageAndMatchesApply) {
  const CMat rho = dqma::quantum::random_density(40, rng());
  const DenseOperator op(rho);
  const CVec x = dqma::quantum::haar_state(40, rng());
  const CVec via_apply = op.apply(x);
  CVec out;
  op.apply_into(x, out);
  EXPECT_EQ(std::memcmp(&out[0], &via_apply[0], 40 * sizeof(Complex)), 0);
  // Second call reuses `out`'s storage and the operator's input scratch.
  op.apply_into(x, out);
  EXPECT_EQ(std::memcmp(&out[0], &via_apply[0], 40 * sizeof(Complex)), 0);
}

}  // namespace
