// Algorithm 11 (paper Sec. 8.2): the reduction from a dQMA protocol on a
// path to a QMA* communication protocol — Alice simulates v_0..v_i, Bob
// simulates v_{i+1}..v_r, Merlin's proof splits across the cut and may be
// entangled.
//
// Executed on the exact EQ path engine: the dQMA protocol's acceptance
// operator, with the proof registers regrouped into Alice's and Bob's
// shares, IS the QMA* protocol's acceptance operator, so the reduction
// preserves the accept probability verbatim for every proof. What changes
// is the *accounting*: the QMA* cost is gamma_1 + gamma_2 + mu =
// sum_j c(v_j) + m(v_i, v_{i+1}), which is what feeds Klauck's lower
// bounds (Theorem 63). This module materializes the instance, verifies the
// preservation, and exposes both the entangled optimum (top eigenvalue)
// and the cut-separable optimum (two-block alternating optimization) —
// quantifying how much cross-cut entanglement buys Merlin.
#pragma once

#include "dqma/exact_runner.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

/// A QMA* communication instance extracted from a path dQMA protocol.
class QmaStarInstance {
 public:
  /// Builds the i-th reduction (cut between v_cut and v_cut+1) from the
  /// exact analyzer of an EQ path protocol of length r, which must hold the
  /// materialized operator (ExactEqPathAnalyzer::Mode::kDense). Requires
  /// 1 <= cut <= r - 1.
  QmaStarInstance(const ExactEqPathAnalyzer& analyzer, int cut,
                  int register_qubits);

  long long alice_proof_dim() const { return gamma1_dim_; }
  long long bob_proof_dim() const { return gamma2_dim_; }

  /// Declared costs: gamma_1, gamma_2 (proof shares) and mu (the one
  /// message crossing the cut).
  long long gamma1_qubits() const { return gamma1_qubits_; }
  long long gamma2_qubits() const { return gamma2_qubits_; }
  long long mu_qubits() const { return mu_qubits_; }
  long long total_cost_qubits() const {
    return gamma1_qubits_ + gamma2_qubits_ + mu_qubits_;
  }

  /// Worst-case acceptance over all (entangled) proofs — equals the source
  /// dQMA protocol's worst case by construction; verified in tests.
  double max_accept() const;

  /// Worst case over proofs SEPARABLE across the Alice/Bob cut (each share
  /// may be internally entangled): two-block alternating optimization.
  double max_cut_separable_accept(util::Rng& rng, int restarts = 6,
                                  int sweeps = 40) const;

 private:
  linalg::CMat op_;       // acceptance operator, Alice registers first
  long long gamma1_dim_;
  long long gamma2_dim_;
  long long gamma1_qubits_;
  long long gamma2_qubits_;
  long long mu_qubits_;
};

}  // namespace dqma::protocol
