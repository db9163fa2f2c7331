// Exact worst-case prover analysis for the EQ path protocol (Algorithm 3).
//
// The protocol's acceptance probability is linear in the proof density
// operator: Pr[accept | rho] = tr(O rho) for the *acceptance operator*
//
//   O = E_coins  (<h_x| tensor I)  ProdTests(coins)  (|h_x> tensor I)
//
// where the coin average runs over the 2^{r-1} symmetrization patterns and
// ProdTests is the tensor product of the local accept effects (the tests
// act on pairwise-disjoint registers, so their product is a POVM element).
// Hence:
//   * worst-case acceptance over ALL (entangled) proofs = lambda_max(O);
//   * worst-case over product proofs (dQMA_sep,sep provers) is computed by
//     alternating optimization, which at each step maximizes the Rayleigh
//     quotient of a single register's conditional operator.
// Comparing the two quantifies how much entangled provers gain — the
// question behind the paper's Sec. 8 lower bounds.
//
// Coin chain. Inner node j's coin b_j decides which of its registers it
// keeps and which it sends on, so node j's swap test touches only
// (b_{j-1}, b_j):
//
//   O = 2^{-(r-1)} sum_b F(b_1) S_2(b_1, b_2) ... S_{r-1}(b_{r-2}, b_{r-1})
//                        Fin(b_{r-1}),
//
// a chain of bond dimension 2. The analyzer keeps exactly that: the first
// effect on kept(1) and the final effect on sent(r-1), one stride plan per
// coin value each, and four plans per inner step j = 2..r-1, one per
// (b_{j-1}, b_j), for the (I + SWAP)/2 effect on (sent(j-1), kept(j)).
// Every operation carries one partial result per value of the current coin
// along the chain — vectors for O|psi>, D x panel blocks for the dense
// build, scalar forward/backward messages for product proofs — so its cost
// is O(r) local applications instead of 2^{r-1} * r. The pattern expansion
// survives as the test oracle (tests/support/pattern_expansion.hpp).
//
// Engine modes. The chain streams through the matrix-free local-operator
// layer (quantum/local_ops.hpp):
//   * kDense (small proof spaces): O is additionally materialized by running
//     the chain on identity column panels, O(r * D^2 * b) in total with
//     O(D * panel) memory on top of O itself, so spectral routines and
//     QMA* reductions can consume the dense matrix;
//   * kMatrixFree (large proof spaces): O is never materialized; its action
//     on a vector costs O(r * D * b) with four D-sized buffers,
//     worst_case_accept runs deterministic Lanczos on that action, and the
//     product-prover optimizer contracts the local effects register by
//     register in O(d^4) per term.
// kAuto picks kDense up to kMaxDenseProofDim and kMatrixFree beyond.
// Callers that need acceptance_operator() ask for kDense explicitly.
//
// Dimensions: the proof space has dimension d^{2(r-1)} for fingerprint
// stand-ins of dimension d; constructors enforce the exact-engine cap
// (util::kMaxExactDim, which the matrix-free mode can actually reach).
#pragma once

#include <vector>

#include "linalg/lanczos.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/state.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

using linalg::CMat;
using linalg::CVec;

/// Exact analyzer for one repetition of Algorithm 3 with endpoint states
/// |h_x> = `hx`, |h_y> = `hy` (any equal dimension d >= 2) on the path of
/// length `r`.
class ExactEqPathAnalyzer {
 public:
  enum class Mode {
    kAuto,        ///< dense up to kMaxDenseProofDim, matrix-free beyond
    kDense,       ///< materialize the acceptance operator (allowed up to
                  ///< util::kMaxDenseExactDim, the dense-matrix memory guard)
    kMatrixFree,  ///< structured form only; O(D) memory
  };

  /// Largest proof dimension for which kAuto materializes the operator:
  /// the measured crossover. At 2 kernel threads with avx2, dense build
  /// plus solve beats the matrix-free solve up to D = 64, ties at D = 81
  /// and loses from D = 100 on (2.3 s against 0.14 s at d = 2, D = 4096).
  /// Explicit kDense goes further, to util::kMaxDenseExactDim.
  static constexpr long long kMaxDenseProofDim = 1LL << 6;

  ExactEqPathAnalyzer(CVec hx, CVec hy, int r, Mode mode = Mode::kAuto);

  /// The full acceptance operator O on the proof space (dense modes only).
  const CMat& acceptance_operator() const;

  /// Whether the dense operator is materialized.
  bool dense() const { return dense_; }

  /// Proof-space dimension d^{2(r-1)}.
  long long proof_dim() const { return proof_dim_; }

  /// O |psi>: dense matvec when materialized, otherwise the matrix-free
  /// coin-chain application.
  CVec apply_acceptance(const CVec& psi) const;

  /// max over all (entangled) proofs of Pr[accept]. Top eigenvalue of the
  /// acceptance operator by the deterministic Lanczos solver
  /// (linalg/lanczos.hpp) at every proof dimension; `max_iters` bounds the
  /// work (the estimate is a lower bound that is tight at convergence).
  double worst_case_accept(int max_iters = 2000) const;

  /// Same quantity with explicit solver options; fills *stats (matvec
  /// counts, iterations) when given, so callers can record solver cost as
  /// JSON metrics.
  double worst_case_accept(const linalg::SpectralOptions& opts,
                           linalg::SpectralStats* stats = nullptr) const;

  /// max over product proofs, by alternating optimization with `restarts`
  /// random restarts. A lower bound on worst_case_accept() that is tight in
  /// practice for these operators. Works in every mode: the conditional
  /// operators are contracted from the local effects, never from O.
  double best_product_accept(util::Rng& rng, int restarts = 8,
                             int sweeps = 60) const;

  /// Acceptance of an explicit product proof (one state per register, in
  /// order R_{1,0}, R_{1,1}, ..., R_{r-1,0}, R_{r-1,1}).
  double product_accept(const std::vector<CVec>& regs) const;

 private:
  int r_;
  int d_;
  int inner_ = 0;
  quantum::RegisterShape shape_;  // 2(r-1) registers of dimension d
  long long proof_dim_ = 1;
  bool dense_ = true;
  // Local effects of Algorithm 3.
  CMat first_;        // (I + |h_x><h_x|)/2 on kept_1
  CMat swap_effect_;  // (I + SWAP)/2 on (sent_{j-1}, kept_j); r >= 3 only
  CMat final_;        // |h_y><h_y| on sent_{r-1}
  CMat op_;           // dense modes (and the r == 1 scalar)

  // The coin chain's stride plans, built once in the constructor and
  // indexed by first_index / step_index / final_index: first(b_1) on
  // kept(1), then four per inner step j = 2..r-1 on (sent(j-1), kept(j))
  // for (b_{j-1}, b_j) = 00, 01, 10, 11, then final(b_{r-1}) on sent(r-1).
  std::vector<quantum::LocalOpPlan> plans_;

  static std::size_t first_index(int b) { return static_cast<std::size_t>(b); }
  static std::size_t step_index(int j, int b_prev, int b) {
    return static_cast<std::size_t>(2 + 4 * (j - 2) + 2 * b_prev + b);
  }
  std::size_t final_index(int b) const { return step_index(inner_ + 1, 0, b); }

  /// O t for a vector (apply_local) or a D x cols panel (apply_left_local):
  /// the chain's matrix-free pass over four buffers of t's size.
  template <class Buffer>
  Buffer apply_chain(Buffer t) const;

  /// The local expectation of every chain effect in a product proof,
  /// indexed like plans_.
  std::vector<double> chain_factors(const std::vector<CVec>& regs) const;

  /// Forward messages of a product proof's coin sum, at message_index(j, b):
  /// the chain factors of nodes 1..j summed over b_1..b_{j-1}, with b_j = b.
  std::vector<double> forward_messages(const std::vector<double>& f) const;
  static std::size_t message_index(int j, int b) {
    return static_cast<std::size_t>(2 * j + b);
  }

  void build_operator();

  /// The d x d conditional operator of register k given the other
  /// registers' states: M_k(i, j) = <psi_-k, e_i| O |psi_-k, e_j>.
  CMat conditional_operator(int k, const std::vector<CVec>& regs) const;
};

}  // namespace dqma::protocol
