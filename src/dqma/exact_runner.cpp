#include "dqma/exact_runner.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "quantum/unitary.hpp"
#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::protocol {

using linalg::Complex;
using quantum::LocalOpPlan;
using quantum::RegisterShape;
using util::require;

namespace {

/// <w| effect |w> for the product state w = tensor of the listed registers'
/// states: the per-group factor of a product proof's acceptance. O(b^2) for
/// block dimension b, with exact zeros of the effect skipped.
double local_expectation(const CMat& effect, const std::vector<int>& group,
                         const std::vector<CVec>& states) {
  CVec w = states[static_cast<std::size_t>(group.front())];
  for (std::size_t k = 1; k < group.size(); ++k) {
    w = w.tensor(states[static_cast<std::size_t>(group[k])]);
  }
  Complex acc{0.0, 0.0};
  for (int i = 0; i < effect.rows(); ++i) {
    const Complex ci = std::conj(w[i]);
    Complex row{0.0, 0.0};
    for (int j = 0; j < effect.cols(); ++j) {
      const Complex v = effect(i, j);
      if (v == Complex{0.0, 0.0}) continue;
      row += v * w[j];
    }
    acc += ci * row;
  }
  return acc.real();
}

/// Partial contraction of a two-register effect, leaving the register at
/// `pos` (0 or 1) free: the d x d conditional block M with
///   pos == 0:  M(i, j) = sum_{a,b} conj(v[a]) E(i*d+a, j*d+b) v[b]
///   pos == 1:  M(a, b) = sum_{i,j} conj(u[i]) E(i*d+a, j*d+b) u[j]
/// contracted in two O(d^4) + O(d^3) stages.
CMat pair_conditional(const CMat& effect, int pos, const CVec& other, int d) {
  CMat m(d, d);
  if (pos == 0) {
    // Stage 1 over b: C(i*d+a, j) = sum_b E(i*d+a, j*d+b) other[b].
    CMat c(d * d, d);
    for (int row = 0; row < d * d; ++row) {
      for (int j = 0; j < d; ++j) {
        Complex acc{0.0, 0.0};
        for (int b = 0; b < d; ++b) {
          const Complex v = effect(row, j * d + b);
          if (v == Complex{0.0, 0.0}) continue;
          acc += v * other[b];
        }
        c(row, j) = acc;
      }
    }
    // Stage 2 over a: M(i, j) = sum_a conj(other[a]) C(i*d+a, j).
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        Complex acc{0.0, 0.0};
        for (int a = 0; a < d; ++a) {
          acc += std::conj(other[a]) * c(i * d + a, j);
        }
        m(i, j) = acc;
      }
    }
    return m;
  }
  // pos == 1: stage 1 over i: T(a, j*d+b) = sum_i conj(other[i]) E(i*d+a, .).
  CMat t(d, d * d);
  for (int a = 0; a < d; ++a) {
    for (int col = 0; col < d * d; ++col) {
      Complex acc{0.0, 0.0};
      for (int i = 0; i < d; ++i) {
        const Complex v = effect(i * d + a, col);
        if (v == Complex{0.0, 0.0}) continue;
        acc += std::conj(other[i]) * v;
      }
      t(a, col) = acc;
    }
  }
  // Stage 2 over j: M(a, b) = sum_j T(a, j*d+b) other[j].
  for (int a = 0; a < d; ++a) {
    for (int b = 0; b < d; ++b) {
      Complex acc{0.0, 0.0};
      for (int j = 0; j < d; ++j) {
        acc += t(a, j * d + b) * other[j];
      }
      m(a, b) = acc;
    }
  }
  return m;
}

/// Register of inner node j (1-based) that it keeps resp. sends on when its
/// coin is b (registers ordered R_{1,0}, R_{1,1}, ..., R_{r-1,1}).
int kept(int j, int b) { return 2 * (j - 1) + b; }
int sent(int j, int b) { return 2 * (j - 1) + (1 - b); }

/// One chain effect on a vector or, row-mixing, on a D x cols panel.
void apply_effect(const LocalOpPlan& plan, const CMat& op, CVec& v) {
  quantum::apply_local(plan, op, v);
}
void apply_effect(const LocalOpPlan& plan, const CMat& op, CMat& panel) {
  quantum::apply_left_local(plan, op, panel);
}

/// Columns per identity panel of the dense build: the chain holds four
/// D x kPanelCols buffers next to the D x D operator.
constexpr int kPanelCols = 64;

}  // namespace

ExactEqPathAnalyzer::ExactEqPathAnalyzer(CVec hx, CVec hy, int r, Mode mode)
    : r_(r), d_(hx.dim()) {
  require(r >= 1, "ExactEqPathAnalyzer: path length must be >= 1");
  require(hx.dim() == hy.dim(), "ExactEqPathAnalyzer: state dim mismatch");
  require(d_ >= 2, "ExactEqPathAnalyzer: need dimension >= 2");

  const int regs = 2 * std::max(0, r_ - 1);
  long long dim = 1;
  for (int k = 0; k < regs; ++k) {
    dim *= d_;
    require(dim <= util::kMaxExactDim,
            "ExactEqPathAnalyzer: proof space exceeds exact-engine cap");
  }
  shape_ = RegisterShape(std::vector<int>(static_cast<std::size_t>(regs), d_));
  proof_dim_ = dim;

  if (r_ == 1) {
    // No intermediate nodes: v_0 sends |h_x>, v_1 measures {|h_y><h_y|}.
    op_ = CMat(1, 1);
    const double amp = std::abs(hy.dot(hx));
    op_(0, 0) = Complex{amp * amp, 0.0};
    dense_ = true;
    return;
  }

  inner_ = r_ - 1;

  // Local effects.
  // First test at v_1 with the fixed |h_x> slot contracted:
  // <h_x| (I + SWAP)/2 |h_x> = (I + |h_x><h_x|)/2 acting on kept_1.
  first_ = CMat::identity(d_);
  first_ += CMat::projector(hx);
  first_ *= Complex{0.5, 0.0};
  // Middle swap-test effect on a register pair — only materialized when the
  // chain has an inner step (inner_ >= 2): r == 2 paths have a single inner
  // node and skipping the d^2 x d^2 build lets wide-d shallow instances
  // through without the quadratic blowup.
  if (inner_ >= 2) {
    swap_effect_ = quantum::swap_unitary(d_);
    swap_effect_ += CMat::identity(d_ * d_);
    swap_effect_ *= Complex{0.5, 0.0};
  }
  // Final measurement on sent_{r-1}.
  final_ = CMat::projector(hy);

  plans_.reserve(static_cast<std::size_t>(4 * inner_));
  for (int b = 0; b < 2; ++b) {
    plans_.emplace_back(shape_, std::vector<int>{kept(1, b)});
  }
  for (int j = 2; j <= inner_; ++j) {
    for (int b_prev = 0; b_prev < 2; ++b_prev) {
      for (int b = 0; b < 2; ++b) {
        plans_.emplace_back(shape_,
                            std::vector<int>{sent(j - 1, b_prev), kept(j, b)});
      }
    }
  }
  for (int b = 0; b < 2; ++b) {
    plans_.emplace_back(shape_, std::vector<int>{sent(inner_, b)});
  }

  dense_ = (mode == Mode::kDense) ||
           (mode == Mode::kAuto && proof_dim_ <= kMaxDenseProofDim);
  if (dense_) {
    // Explicit kDense may exceed the kAuto threshold up to the dense-matrix
    // memory guard (the seed engine's old cap), so consumers that need the
    // materialized operator on mid-size instances keep an escape hatch.
    require(proof_dim_ <= util::kMaxDenseExactDim,
            "ExactEqPathAnalyzer: proof space too large for the dense mode");
    build_operator();
  }
}

template <class Buffer>
Buffer ExactEqPathAnalyzer::apply_chain(Buffer t) const {
  // t and t1 are the partial results for the current coin b_j = 0 and 1.
  // The effects act on disjoint registers, so each coin pattern's product
  // can be applied in chain order; summing over b_{j-1} at every step
  // leaves 4(r-2) + 4 local applications instead of 2^{r-1} * r. The
  // parallel region is the threaded local kernel inside each application.
  Buffer t1 = t;
  apply_effect(plans_[first_index(0)], first_, t);
  apply_effect(plans_[first_index(1)], first_, t1);
  Buffer u;
  Buffer v;
  for (int j = 2; j <= inner_; ++j) {
    // t_b <- sum_{b'} S_j(b', b) t_{b'}, with u and v holding the cross
    // terms so that t and t1 update in place.
    u = t;
    apply_effect(plans_[step_index(j, 0, 1)], swap_effect_, u);
    v = t1;
    apply_effect(plans_[step_index(j, 1, 0)], swap_effect_, v);
    apply_effect(plans_[step_index(j, 0, 0)], swap_effect_, t);
    t += v;
    apply_effect(plans_[step_index(j, 1, 1)], swap_effect_, t1);
    t1 += u;
  }
  apply_effect(plans_[final_index(0)], final_, t);
  apply_effect(plans_[final_index(1)], final_, t1);
  t += t1;
  t *= Complex{std::ldexp(1.0, -inner_), 0.0};
  return t;
}

void ExactEqPathAnalyzer::build_operator() {
  // The chain on identity column panels: O(r * D^2 * b) in total, and the
  // only memory besides op_ is the chain's four D x kPanelCols buffers.
  const int dim = static_cast<int>(proof_dim_);
  op_ = CMat(dim, dim);
  for (int c0 = 0; c0 < dim; c0 += kPanelCols) {
    const int cols = std::min(kPanelCols, dim - c0);
    CMat panel(dim, cols);
    for (int c = 0; c < cols; ++c) {
      panel(c0 + c, c) = Complex{1.0, 0.0};
    }
    const CMat block = apply_chain(std::move(panel));
    for (int i = 0; i < dim; ++i) {
      for (int c = 0; c < cols; ++c) {
        op_(i, c0 + c) = block(i, c);
      }
    }
  }
}

const CMat& ExactEqPathAnalyzer::acceptance_operator() const {
  require(dense_,
          "ExactEqPathAnalyzer: acceptance operator not materialized in "
          "matrix-free mode");
  return op_;
}

CVec ExactEqPathAnalyzer::apply_acceptance(const CVec& psi) const {
  require(static_cast<long long>(psi.dim()) == proof_dim_,
          "ExactEqPathAnalyzer: state dimension mismatch");
  if (r_ == 1) {
    return psi * op_(0, 0);
  }
  if (dense_) {
    return op_ * psi;
  }
  return apply_chain(psi);
}

double ExactEqPathAnalyzer::worst_case_accept(int max_iters) const {
  linalg::SpectralOptions opts;
  opts.max_iters = max_iters;
  return worst_case_accept(opts);
}

double ExactEqPathAnalyzer::worst_case_accept(
    const linalg::SpectralOptions& opts, linalg::SpectralStats* stats) const {
  // Both operator forms feed the same Lanczos solver: DenseOperator
  // packs op_ to split-complex once (SIMD matvec per iteration),
  // CallbackOperator streams through apply_acceptance.
  if (dense_) {
    const linalg::DenseOperator op(op_);
    return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
  }
  const linalg::CallbackOperator op(
      [this](const CVec& psi) { return apply_acceptance(psi); },
      static_cast<int>(proof_dim_));
  return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
}

std::vector<double> ExactEqPathAnalyzer::chain_factors(
    const std::vector<CVec>& regs) const {
  std::vector<double> factors(plans_.size());
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    const CMat& effect =
        i < 2 ? first_ : (i >= final_index(0) ? final_ : swap_effect_);
    factors[i] = local_expectation(effect, plans_[i].regs(), regs);
  }
  return factors;
}

std::vector<double> ExactEqPathAnalyzer::forward_messages(
    const std::vector<double>& f) const {
  std::vector<double> alpha(message_index(inner_ + 1, 0));
  for (int b = 0; b < 2; ++b) {
    alpha[message_index(1, b)] = f[first_index(b)];
  }
  for (int j = 2; j <= inner_; ++j) {
    for (int b = 0; b < 2; ++b) {
      alpha[message_index(j, b)] =
          alpha[message_index(j - 1, 0)] * f[step_index(j, 0, b)] +
          alpha[message_index(j - 1, 1)] * f[step_index(j, 1, b)];
    }
  }
  return alpha;
}

double ExactEqPathAnalyzer::product_accept(const std::vector<CVec>& regs) const {
  require(static_cast<int>(regs.size()) == shape_.register_count(),
          "ExactEqPathAnalyzer: register count mismatch");
  if (shape_.register_count() == 0) {
    return op_(0, 0).real();
  }
  for (const CVec& v : regs) {
    require(v.dim() == d_, "ExactEqPathAnalyzer: register dimension mismatch");
  }
  // For a product proof every chain effect contributes a scalar local
  // expectation, so the coin sum is a forward message over two values —
  // O(r) expectations of O(d^4) each, no D-dimensional object touched.
  const std::vector<double> f = chain_factors(regs);
  const std::vector<double> alpha = forward_messages(f);
  const double total = alpha[message_index(inner_, 0)] * f[final_index(0)] +
                       alpha[message_index(inner_, 1)] * f[final_index(1)];
  return std::max(0.0, std::ldexp(total, -inner_));
}

CMat ExactEqPathAnalyzer::conditional_operator(
    int k, const std::vector<CVec>& regs) const {
  // M_k = 2^{-(r-1)} sum_b (block of the effect holding k) * (product of
  // the other effects' expectations). Register k = R_{j,c} is kept(j) when
  // b_j = c and sent(j) when b_j = 1 - c, so only the effects of nodes j
  // and j + 1 carry a block; the rest of the coin sum collapses into the
  // forward messages alpha and backward messages beta (effects j+1..r
  // summed over b_{j+1}, ... given b_j).
  const std::vector<double> f = chain_factors(regs);
  const std::vector<double> alpha = forward_messages(f);
  std::vector<double> beta(alpha.size());
  for (int b = 0; b < 2; ++b) {
    beta[message_index(inner_, b)] = f[final_index(b)];
  }
  for (int j = inner_ - 1; j >= 1; --j) {
    for (int b = 0; b < 2; ++b) {
      beta[message_index(j, b)] =
          f[step_index(j + 1, b, 0)] * beta[message_index(j + 1, 0)] +
          f[step_index(j + 1, b, 1)] * beta[message_index(j + 1, 1)];
    }
  }

  const int j = k / 2 + 1;
  const int c = k % 2;
  CMat cond(d_, d_);
  const auto add = [&](CMat block, double weight) {
    block *= Complex{weight, 0.0};
    cond += block;
  };
  // b_j = c: k is kept(j), in node j's own test.
  if (j == 1) {
    add(first_, beta[message_index(1, c)]);
  } else {
    for (int b = 0; b < 2; ++b) {
      add(pair_conditional(swap_effect_, 1,
                           regs[static_cast<std::size_t>(sent(j - 1, b))], d_),
          alpha[message_index(j - 1, b)] * beta[message_index(j, c)]);
    }
  }
  // b_j = 1 - c: k is sent(j), in node j + 1's test or the final measurement.
  if (j == inner_) {
    add(final_, alpha[message_index(inner_, 1 - c)]);
  } else {
    for (int b = 0; b < 2; ++b) {
      add(pair_conditional(swap_effect_, 0,
                           regs[static_cast<std::size_t>(kept(j + 1, b))], d_),
          alpha[message_index(j, 1 - c)] * beta[message_index(j + 1, b)]);
    }
  }
  cond *= Complex{std::ldexp(1.0, -inner_), 0.0};
  return cond;
}

double ExactEqPathAnalyzer::best_product_accept(util::Rng& rng, int restarts,
                                                int sweeps) const {
  if (shape_.register_count() == 0) {
    return op_(0, 0).real();
  }
  const int nregs = shape_.register_count();
  double best = 0.0;
  for (int restart = 0; restart < restarts; ++restart) {
    std::vector<CVec> regs;
    regs.reserve(static_cast<std::size_t>(nregs));
    for (int k = 0; k < nregs; ++k) {
      regs.push_back(quantum::haar_state(d_, rng));
    }
    double value = product_accept(regs);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (int k = 0; k < nregs; ++k) {
        const CMat conditional = conditional_operator(k, regs);
        const auto es = linalg::eigh(conditional);
        CVec top(d_);
        for (int i = 0; i < d_; ++i) {
          top[i] = es.vectors(i, d_ - 1);
        }
        regs[static_cast<std::size_t>(k)] = std::move(top);
      }
      const double next = product_accept(regs);
      if (next <= value + 1e-12) {
        value = std::max(value, next);
        break;
      }
      value = next;
    }
    best = std::max(best, value);
  }
  return std::min(1.0, best);
}

}  // namespace dqma::protocol
