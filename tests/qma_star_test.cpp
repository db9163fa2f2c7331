// Tests for the Algorithm 11 reduction (dQMA -> QMA* communication).
#include <gtest/gtest.h>

#include <cmath>

#include "dqma/exact_runner.hpp"
#include "dqma/qma_star.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace {

using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::protocol::ExactEqPathAnalyzer;
using dqma::protocol::QmaStarInstance;
using dqma::util::Rng;

// The reduction consumes the materialized acceptance operator.
constexpr auto kDense = ExactEqPathAnalyzer::Mode::kDense;

CVec far_state() {
  return CVec::basis(2, 1);
}

TEST(QmaStarTest, ReductionPreservesWorstCaseAcceptance) {
  // The paper's key observation: the i-th reduction yields a QMA* protocol
  // whose acceptance (for every proof) equals the source protocol's, so
  // worst cases coincide at EVERY cut.
  const CVec a = CVec::basis(2, 0);
  const CVec b = far_state();
  for (int r : {3, 4}) {
    const ExactEqPathAnalyzer analyzer(a, b, r, kDense);
    const double source_worst = analyzer.worst_case_accept();
    for (int cut = 0; cut <= r - 1; ++cut) {
      const QmaStarInstance star(analyzer, cut, /*register_qubits=*/5);
      EXPECT_NEAR(star.max_accept(), source_worst, 1e-7)
          << "r=" << r << " cut=" << cut;
    }
  }
}

TEST(QmaStarTest, CostAccountingMatchesTheorem63) {
  // gamma_1 + gamma_2 = total proof qubits; mu = one crossing message.
  const CVec a = CVec::basis(2, 0);
  const ExactEqPathAnalyzer analyzer(a, far_state(), 4, kDense);
  const int q = 7;
  for (int cut = 0; cut <= 3; ++cut) {
    const QmaStarInstance star(analyzer, cut, q);
    EXPECT_EQ(star.gamma1_qubits() + star.gamma2_qubits(),
              2LL * 3 * q);  // 2 registers x (r-1) nodes x q qubits
    EXPECT_EQ(star.mu_qubits(), q);
    EXPECT_EQ(star.gamma1_qubits(), 2LL * cut * q);
  }
}

TEST(QmaStarTest, CutSeparableProversAreWeakerButClose) {
  Rng rng(31);
  const CVec a = CVec::basis(2, 0);
  const ExactEqPathAnalyzer analyzer(a, far_state(), 4, kDense);
  const QmaStarInstance star(analyzer, /*cut=*/1, 5);
  const double entangled = star.max_accept();
  const double separable = star.max_cut_separable_accept(rng);
  EXPECT_LE(separable, entangled + 1e-7);
  // The gap is small on these instances (consistent with the paper's
  // sep-simulation losing only polynomial factors).
  EXPECT_LE(entangled - separable, 0.2);
}

TEST(QmaStarTest, DegenerateCutsEqualEntangledOptimum) {
  Rng rng(32);
  const CVec a = CVec::basis(2, 0);
  const ExactEqPathAnalyzer analyzer(a, far_state(), 3, kDense);
  // cut = 0: Alice holds nothing; cut = r-1: Bob holds nothing.
  for (int cut : {0, 2}) {
    const QmaStarInstance star(analyzer, cut, 5);
    EXPECT_NEAR(star.max_cut_separable_accept(rng), star.max_accept(), 1e-7);
  }
}

TEST(QmaStarTest, RejectsOutOfRangeCut) {
  const CVec a = CVec::basis(2, 0);
  const ExactEqPathAnalyzer analyzer(a, far_state(), 3, kDense);
  EXPECT_THROW(QmaStarInstance(analyzer, 5, 5), std::invalid_argument);
}

}  // namespace
