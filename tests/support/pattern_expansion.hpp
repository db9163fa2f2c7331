// Reference implementation of the EQ-path acceptance operator by full
// coin-pattern expansion — the test oracle for ExactEqPathAnalyzer.
//
// Algorithm 3's acceptance operator is the coin average
//
//   O = 2^{-(r-1)} sum_{b in {0,1}^{r-1}} F(b_1) S_2(b_1, b_2) ...
//                                          S_{r-1}(b_{r-2}, b_{r-1}) Fin(b_{r-1}),
//
// and this class evaluates it literally: every one of the 2^{r-1} patterns
// gets its own list of r local effects, and every operation loops over all
// of them. The analyzer computes the same quantities through a two-state
// coin chain in O(r); this expansion is exponential in r and exists only to
// cross-check it. Conditional blocks are contracted entry by entry from
// the pattern's effect group, independently of the analyzer's two-stage
// contraction.
#pragma once

#include <array>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "quantum/state.hpp"
#include "util/rng.hpp"

namespace dqma::test {

class PatternExpansion {
 public:
  /// The expansion for endpoint states hx, hy (dimension d >= 2) on the
  /// path of length r >= 1; registers are ordered like the analyzer's.
  PatternExpansion(const linalg::CVec& hx, const linalg::CVec& hy, int r);

  int register_count() const { return shape_.register_count(); }

  /// O |psi>: per pattern, copy psi and apply the pattern's r effects.
  linalg::CVec apply(const linalg::CVec& psi) const;

  /// Acceptance of a product proof: per pattern, the product of the local
  /// expectations of its effect groups.
  double product_accept(const std::vector<linalg::CVec>& regs) const;

  /// The analyzer's alternating product-prover optimization, run on this
  /// expansion (same Haar draws from `rng`, same stopping rule).
  double best_product_accept(util::Rng& rng, int restarts, int sweeps) const;

 private:
  /// M_k(i, j) = <psi_-k, e_i| O |psi_-k, e_j> for register k.
  linalg::CMat conditional_operator(int k,
                                    const std::vector<linalg::CVec>& regs) const;

  struct Effect {
    int kind;  // index into effects_: 0 first, 1 swap, 2 final
    std::vector<int> regs;
  };

  int d_;
  quantum::RegisterShape shape_;
  double scalar_ = 0.0;  // r == 1: |<h_y|h_x>|^2
  std::array<linalg::CMat, 3> effects_;
  std::vector<std::vector<Effect>> patterns_;
};

}  // namespace dqma::test
