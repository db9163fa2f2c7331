// Reference implementation of one Algorithm 3 repetition as an actual
// quantum circuit — the test oracle for protocol::circuit_eq_path_accept.
//
// Every SWAP test runs on a state-vector machine: ancilla + Hadamard +
// controlled-SWAP + measurement (Algorithm 1 verbatim), with explicit
// symmetrization coins and a projective final measurement. The library
// precomputes each node's closed-form test probabilities once and samples
// against the tables; this machine simulates every shot instead, at
// O(inner * d^2) per shot. The RNG draw order is the library's (coin,
// acceptance draw per node, final Bernoulli), so from one seed both walk
// the same sample paths and consume the same number of draws.
#pragma once

#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace dqma::test {

/// Empirical acceptance of `samples` circuit-level runs of one repetition:
/// `source` is what v_0 sends, `target` is v_r's reference state and
/// `proof` holds the intermediate nodes' registers (product proof).
protocol::MonteCarloEstimate state_vector_circuit_accept(
    const linalg::CVec& source, const linalg::CVec& target,
    const protocol::PathProof& proof, util::Rng& rng, int samples);

}  // namespace dqma::test
