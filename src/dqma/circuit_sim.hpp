// Circuit-level Monte-Carlo of the EQ path protocol (Algorithm 3): one
// repetition sampled shot by shot as the network runs it — a
// symmetrization coin per intermediate node, a SWAP test (Algorithm 1) on
// the register arriving from the left and the one the node keeps, and v_r's
// projective final measurement.
//
// Each node's SWAP test sees one of four (previous coin, own coin) register
// pairs, so its acceptance probabilities follow in closed form,
// Pr[0] = (1 + |<a|b>|^2) / 2, and are computed once in O(inner * d). Each
// shot then costs O(inner) coin flips and table lookups. The gate-by-gate
// state-vector circuit (ancilla, Hadamards, controlled-SWAP) lives in
// tests/support as the oracle: it draws in the same order, so the tests
// check the two shot for shot. Both are cross-checked against the
// closed-form coin DP of runner.hpp and the acceptance-operator engine of
// exact_runner.hpp.
#pragma once

#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

/// Simulates `samples` runs of one repetition of Algorithm 3 at circuit
/// level and returns the empirical acceptance probability.
///
/// * `source`: the state v_0 sends (e.g. |h_x>);
/// * `target`: v_r's reference state (accept projector |h_y><h_y|);
/// * `proof`: the intermediate nodes' registers (product proof).
/// The draw order per shot is: coin, then an acceptance draw, per node
/// until one rejects; then the final Bernoulli. Dimensions are capped by
/// the exact-engine limit (2 d^2 <= kMaxExactDim).
MonteCarloEstimate circuit_eq_path_accept(const linalg::CVec& source,
                                          const linalg::CVec& target,
                                          const PathProof& proof,
                                          util::Rng& rng, int samples);

}  // namespace dqma::protocol
