#include "support/circuit_oracle.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

#include "quantum/local_ops.hpp"
#include "quantum/state.hpp"
#include "quantum/unitary.hpp"

namespace dqma::test {

using linalg::CMat;
using linalg::Complex;
using linalg::CVec;

protocol::MonteCarloEstimate state_vector_circuit_accept(
    const CVec& source, const CVec& target, const protocol::PathProof& proof,
    util::Rng& rng, int samples) {
  const int d = source.dim();
  // One SWAP-test circuit (Algorithm 1) on registers {ancilla, A, B}; the
  // shape, the Hadamard plan and the state buffer are built once and reused
  // across every test of every sample — the per-test work is the engine's
  // O(d^2) stride passes, never a dense 2d^2 x 2d^2 operator.
  const quantum::RegisterShape shape({2, d, d});
  const CMat h = quantum::hadamard();
  const quantum::LocalOpPlan h_plan(shape, {0});
  const int dd = d * d;
  CVec amp(2 * dd);

  const int inner = proof.intermediate_nodes();
  const auto run_once = [&]() -> double {
    // `received` travels down the chain; it is always a pure register
    // disjoint from previously tested pairs.
    CVec received = source;
    for (int j = 0; j < inner; ++j) {
      const bool coin = rng.next_bool(0.5);  // symmetrization (step 3)
      const CVec& kept =
          coin ? proof.reg1[static_cast<std::size_t>(j)]
               : proof.reg0[static_cast<std::size_t>(j)];
      const CVec& sent =
          coin ? proof.reg0[static_cast<std::size_t>(j)]
               : proof.reg1[static_cast<std::size_t>(j)];
      // Algorithm 1 verbatim: ancilla |0>, H, controlled-SWAP, H, measure.
      // |0>|received>|kept>: the ancilla-0 block carries the product state.
      for (int a = 0; a < d; ++a) {
        for (int b = 0; b < d; ++b) {
          amp[a * d + b] = received[a] * kept[b];
        }
      }
      for (int x = 0; x < dd; ++x) {
        amp[dd + x] = Complex{0.0, 0.0};
      }
      quantum::apply_local(h_plan, h, amp);
      // Controlled-SWAP = identity on the ancilla-0 block, SWAP of the two
      // d-registers on the ancilla-1 block.
      for (int a = 0; a < d; ++a) {
        for (int b = a + 1; b < d; ++b) {
          std::swap(amp[dd + a * d + b], amp[dd + b * d + a]);
        }
      }
      quantum::apply_local(h_plan, h, amp);
      // Measure the ancilla: Pr[0] is the weight of the first block (the
      // ancilla is the most significant register). Reject on outcome 1; the
      // tested pair is consumed either way, so no collapse is needed.
      double p0 = 0.0;
      for (int x = 0; x < dd; ++x) {
        p0 += std::norm(amp[x]);
      }
      if (rng.next_double() >= p0) {
        return 0.0;  // this node rejects
      }
      received = sent;
    }
    // v_r: projective measurement {|h_y><h_y|, I - ...}.
    const double p = std::norm(target.dot(received));
    return rng.next_bool(p) ? 1.0 : 0.0;
  };

  return protocol::estimate(run_once, samples);
}

}  // namespace dqma::test
