// Unit + property tests for the quantum-state layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "quantum/density.hpp"
#include "quantum/distance.hpp"
#include "quantum/measurement.hpp"
#include "quantum/partial_trace.hpp"
#include "quantum/random.hpp"
#include "quantum/state.hpp"
#include "quantum/unitary.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "util/tolerance.hpp"

namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::quantum::BinaryPovm;
using dqma::quantum::Density;
using dqma::quantum::fidelity;
using dqma::quantum::fuchs_van_de_graaf_holds;
using dqma::quantum::haar_state;
using dqma::quantum::haar_unitary;
using dqma::quantum::partial_trace;
using dqma::quantum::PureState;
using dqma::quantum::random_density;
using dqma::quantum::reduce_to;
using dqma::quantum::RegisterShape;
using dqma::quantum::trace_distance;
using dqma::util::Rng;

TEST(RegisterShapeTest, FlattenUnflattenRoundTrip) {
  const RegisterShape shape({2, 3, 4});
  EXPECT_EQ(shape.total_dim(), 24);
  for (long long flat = 0; flat < 24; ++flat) {
    const auto idx = shape.unflatten(flat);
    EXPECT_EQ(shape.flatten(idx), flat);
  }
}

TEST(RegisterShapeTest, RowMajorConvention) {
  const RegisterShape shape({2, 3});
  EXPECT_EQ(shape.flatten({1, 2}), 5);
  EXPECT_EQ(shape.flatten({0, 2}), 2);
}

TEST(PureStateTest, DefaultIsAllZeros) {
  const PureState psi{RegisterShape({2, 2})};
  EXPECT_NEAR(psi.outcome_probability(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(psi.outcome_probability(1, 0), 1.0, 1e-12);
}

TEST(PureStateTest, ApplyOnSecondRegisterOnly) {
  PureState psi{RegisterShape({2, 2})};
  psi.apply(dqma::quantum::hadamard(), {1});
  EXPECT_NEAR(psi.outcome_probability(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(psi.outcome_probability(0, 0), 1.0, 1e-12);
}

TEST(PureStateTest, ApplyMatchesGlobalKronecker) {
  Rng rng(11);
  // Random two-register state; apply U on register 0 and compare against
  // (U otimes I) on the flat vector.
  const CVec amps = haar_state(6, rng);
  PureState psi(RegisterShape({2, 3}), amps);
  const CMat u = haar_unitary(2, rng);
  PureState applied = psi;
  applied.apply(u, {0});
  const CVec expected = u.kron(CMat::identity(3)) * amps;
  EXPECT_STATE_NEAR(applied.amplitudes(), expected);
}

TEST(PureStateTest, ApplyOnRegisterPairMatchesKronecker) {
  Rng rng(12);
  const CVec amps = haar_state(12, rng);
  PureState psi(RegisterShape({2, 3, 2}), amps);
  const CMat u = haar_unitary(6, rng);  // acts on registers {0,1}
  PureState applied = psi;
  applied.apply(u, {0, 1});
  const CVec expected = u.kron(CMat::identity(2)) * amps;
  EXPECT_STATE_NEAR(applied.amplitudes(), expected);
}

TEST(PureStateTest, MeasurementCollapsesAndOutcomesFollowBornRule) {
  Rng rng(13);
  PureState base{RegisterShape({2})};
  base.apply(dqma::quantum::hadamard(), {0});
  int ones = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    PureState psi = base;
    const int outcome = psi.measure_register(0, rng);
    ones += outcome;
    // Collapsed state must be deterministic on re-measurement.
    EXPECT_NEAR(psi.outcome_probability(0, outcome), 1.0, 1e-9);
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

TEST(DensityTest, BellStateReducesToMaximallyMixed) {
  CVec bell(4);
  bell[0] = Complex{1.0 / std::sqrt(2.0), 0.0};
  bell[3] = Complex{1.0 / std::sqrt(2.0), 0.0};
  const PureState psi(RegisterShape({2, 2}), bell);
  const Density reduced = reduce_to(Density::from_pure(psi), {0});
  EXPECT_NEAR(reduced.matrix()(0, 0).real(), 0.5, 1e-10);
  EXPECT_NEAR(reduced.matrix()(1, 1).real(), 0.5, 1e-10);
  EXPECT_NEAR(std::abs(reduced.matrix()(0, 1)), 0.0, 1e-10);
}

TEST(DensityTest, PartialTraceOfProductIsFactor) {
  Rng rng(21);
  const CVec a = haar_state(3, rng);
  const CVec b = haar_state(4, rng);
  const PureState psi =
      PureState::single(a).tensor(PureState::single(b));
  const Density left = partial_trace(Density::from_pure(psi), {1});
  const CMat expected = CMat::projector(a);
  EXPECT_DENSITY_NEAR_TOL(left.matrix(), expected, dqma::util::kAlgebraTol);
}

TEST(DensityTest, PartialTracePreservesTrace) {
  Rng rng(22);
  const CVec amps = haar_state(24, rng);
  const PureState psi(RegisterShape({2, 3, 4}), amps);
  const Density rho = Density::from_pure(psi);
  for (int reg = 0; reg < 3; ++reg) {
    const Density reduced = partial_trace(rho, {reg});
    EXPECT_NEAR(reduced.matrix().trace().real(), 1.0, 1e-9);
  }
}

TEST(DensityTest, ExpectationOfEmbeddedIdentityIsOne) {
  Rng rng(23);
  const CVec amps = haar_state(8, rng);
  const Density rho = Density::from_pure(PureState(RegisterShape({2, 2, 2}), amps));
  EXPECT_NEAR(rho.expectation(CMat::identity(2), {1}), 1.0, 1e-9);
  EXPECT_NEAR(rho.expectation(CMat::identity(4), {0, 2}), 1.0, 1e-9);
}

TEST(DensityTest, MixWithInterpolatesTrace) {
  const Density a = Density::maximally_mixed(RegisterShape({2}));
  Density b = Density::from_pure(PureState{RegisterShape({2})});
  b.mix_with(a, 0.25);
  // 0.25 * |0><0| + 0.75 * I/2: diagonal (0.625, 0.375).
  EXPECT_NEAR(b.matrix()(0, 0).real(), 0.625, 1e-10);
  EXPECT_NEAR(b.matrix()(1, 1).real(), 0.375, 1e-10);
}

TEST(DensityTest, FactoriesRejectDimensionsAboveDenseCap) {
  // One qubit past kMaxDenseExactDim: both factories refuse before any
  // D x D allocation.
  constexpr int kQubits = 15;
  static_assert((1 << kQubits) > dqma::util::kMaxDenseExactDim);
  const RegisterShape shape(std::vector<int>(kQubits, 2));
  EXPECT_THROW(Density::maximally_mixed(shape), std::invalid_argument);
  const std::vector<double> probs(std::size_t{1} << kQubits,
                                  1.0 / static_cast<double>(1 << kQubits));
  EXPECT_THROW(Density::diagonal(shape, probs), std::invalid_argument);
}

TEST(DensityTest, DiagonalMixtureMatchesClosedFormThroughApplyAndReduce) {
  // A 10-qubit diagonal mixture pushed through apply / expectation /
  // reduce_to, against closed forms built from the probabilities alone.
  constexpr int kQubits = 10;
  constexpr long long kDim = 1LL << kQubits;
  std::vector<double> probs(static_cast<std::size_t>(kDim));
  double sum = 0.0;
  for (long long i = 0; i < kDim; ++i) {
    probs[static_cast<std::size_t>(i)] =
        1.0 + 0.5 * std::cos(0.001 * static_cast<double>(i));
    sum += probs[static_cast<std::size_t>(i)];
  }
  for (double& p : probs) p /= sum;
  Density rho =
      Density::diagonal(RegisterShape(std::vector<int>(kQubits, 2)), probs);

  Rng rng(24);
  const CMat u = haar_unitary(4, rng);
  rho.apply(u, {0, 1});
  CMat effect(4, 4);
  effect(0, 0) = Complex{1.0, 0.0};
  // tr((E tensor I) U rho U^dagger) for diagonal rho is
  // sum_i p_i M(a(i), a(i)) with M = U^dagger E U and a(i) the block index
  // of registers {0, 1} (the two high-order qubits).
  const CMat m = u.adjoint() * effect * u;
  double expected_expectation = 0.0;
  std::vector<double> block_sums(4, 0.0);
  for (long long i = 0; i < kDim; ++i) {
    const auto block = static_cast<std::size_t>(i >> (kQubits - 2));
    expected_expectation +=
        probs[static_cast<std::size_t>(i)] *
        m(static_cast<int>(block), static_cast<int>(block)).real();
    block_sums[block] += probs[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(rho.expectation(effect, {0, 1}), expected_expectation, 1e-12);

  // Reducing to registers {0, 1} gives U diag(block sums) U^dagger.
  CMat diag(4, 4);
  for (int a = 0; a < 4; ++a) {
    diag(a, a) = Complex{block_sums[static_cast<std::size_t>(a)], 0.0};
  }
  EXPECT_DENSITY_NEAR_TOL(reduce_to(rho, {0, 1}).matrix(),
                          (u * diag).times_adjoint(u), 1e-12);
}

TEST(DistanceTest, IdenticalStatesHaveZeroDistanceUnitFidelity) {
  Rng rng(31);
  const CMat rho = random_density(5, rng);
  const Density d(RegisterShape({5}), rho);
  EXPECT_NEAR(trace_distance(d, d), 0.0, 1e-8);
  EXPECT_NEAR(fidelity(d, d), 1.0, 1e-7);
}

TEST(DistanceTest, OrthogonalPureStatesAreMaximallyDistant) {
  const PureState e0 = PureState::single(CVec::basis(2, 0));
  const PureState e1 = PureState::single(CVec::basis(2, 1));
  EXPECT_NEAR(trace_distance(e0, e1), 1.0, 1e-12);
  EXPECT_NEAR(fidelity(e0, e1), 0.0, 1e-12);
  EXPECT_NEAR(trace_distance(Density::from_pure(e0), Density::from_pure(e1)),
              1.0, 1e-9);
}

TEST(DistanceTest, FuchsVanDeGraafPropertyOnRandomStates) {
  Rng rng(32);
  for (int trial = 0; trial < 8; ++trial) {
    const Density a(RegisterShape({4}), random_density(4, rng));
    const Density b(RegisterShape({4}), random_density(4, rng));
    const double td = trace_distance(a, b);
    const double f = fidelity(a, b);
    EXPECT_TRUE(fuchs_van_de_graaf_holds(td, f, 1e-6))
        << "D=" << td << " F=" << f;
  }
}

TEST(DistanceTest, PureStateShortcutsMatchDensityComputation) {
  Rng rng(33);
  const PureState a = PureState::single(haar_state(4, rng));
  const PureState b = PureState::single(haar_state(4, rng));
  EXPECT_NEAR(trace_distance(a, b),
              trace_distance(Density::from_pure(a), Density::from_pure(b)),
              1e-7);
  EXPECT_NEAR(fidelity(a, b),
              fidelity(Density::from_pure(a), Density::from_pure(b)), 1e-6);
}

TEST(UnitaryTest, SwapActsCorrectly) {
  const CMat swap = dqma::quantum::swap_unitary(3);
  const CVec a = CVec::basis(3, 0);
  const CVec b = CVec::basis(3, 2);
  const CVec swapped = swap * a.tensor(b);
  EXPECT_STATE_NEAR_TOL(swapped, b.tensor(a), 1e-12);
  EXPECT_TRUE(swap.is_unitary(1e-12));
}

TEST(UnitaryTest, PermutationUnitaryMatchesDefinition) {
  // pi = (0 -> 1 -> 2 -> 0): U_pi |i1 i2 i3> = |i_{pi^{-1}(1)} ...>.
  const std::vector<int> perm{1, 2, 0};
  const CMat u = dqma::quantum::permutation_unitary(2, perm);
  EXPECT_TRUE(u.is_unitary(1e-12));
  // |a b c> -> |i_{pi^{-1}(0)} i_{pi^{-1}(1)} i_{pi^{-1}(2)}> = |c a b>.
  const CVec in = CVec::basis(2, 1).tensor(CVec::basis(2, 0)).tensor(
      CVec::basis(2, 0));  // |100>
  const CVec out = u * in;
  const CVec expected = CVec::basis(2, 0).tensor(CVec::basis(2, 1)).tensor(
      CVec::basis(2, 0));  // |010>
  EXPECT_STATE_NEAR_TOL(out, expected, 1e-12);
}

TEST(UnitaryTest, SelectUnitaryBlocks) {
  const CMat cswap = dqma::quantum::select_unitary(
      {CMat::identity(4), dqma::quantum::swap_unitary(2)});
  EXPECT_TRUE(cswap.is_unitary(1e-12));
  // |1>|01> -> |1>|10>.
  const CVec in = CVec::basis(2, 1).tensor(CVec::basis(4, 1));
  const CVec out = cswap * in;
  const CVec expected = CVec::basis(2, 1).tensor(CVec::basis(4, 2));
  EXPECT_STATE_NEAR_TOL(out, expected, 1e-12);
}

TEST(UnitaryTest, AllPermutationsCount) {
  EXPECT_EQ(dqma::quantum::all_permutations(1).size(), 1u);
  EXPECT_EQ(dqma::quantum::all_permutations(3).size(), 6u);
  EXPECT_EQ(dqma::quantum::all_permutations(5).size(), 120u);
}

TEST(RandomTest, HaarUnitaryIsUnitary) {
  Rng rng(41);
  for (int d : {2, 3, 5}) {
    EXPECT_TRUE(haar_unitary(d, rng).is_unitary(1e-9));
  }
}

TEST(RandomTest, RandomDensityIsValidState) {
  Rng rng(42);
  const CMat rho = random_density(6, rng);
  EXPECT_TRUE(rho.is_hermitian(1e-10));
  EXPECT_NEAR(rho.trace().real(), 1.0, 1e-10);
}

TEST(MeasurementTest, PovmValidatesRange) {
  CMat bad = CMat::identity(2) * Complex{2.0, 0.0};
  EXPECT_THROW(BinaryPovm{bad}, std::invalid_argument);
  CMat good = CMat::identity(2) * Complex{0.5, 0.0};
  EXPECT_NO_THROW(BinaryPovm{good});
}

TEST(MeasurementTest, ProjectorAcceptProbability) {
  const CMat proj = CMat::projector(CVec::basis(2, 0));
  const BinaryPovm povm(proj);
  PureState plus{RegisterShape({2})};
  plus.apply(dqma::quantum::hadamard(), {0});
  EXPECT_NEAR(povm.accept_probability(plus), 0.5, 1e-10);
}

}  // namespace
