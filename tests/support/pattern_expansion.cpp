#include "support/pattern_expansion.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/eigen.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "quantum/unitary.hpp"

namespace dqma::test {

using linalg::CMat;
using linalg::Complex;
using linalg::CVec;

namespace {

/// Tensor product of the listed registers' states, with register `k`
/// replaced by `replacement` when k >= 0.
CVec group_state(const std::vector<int>& group, const std::vector<CVec>& states,
                 int k = -1, const CVec* replacement = nullptr) {
  CVec w(1);
  w[0] = Complex{1.0, 0.0};
  for (const int reg : group) {
    w = w.tensor(reg == k ? *replacement
                          : states[static_cast<std::size_t>(reg)]);
  }
  return w;
}

}  // namespace

PatternExpansion::PatternExpansion(const CVec& hx, const CVec& hy, int r)
    : d_(hx.dim()),
      shape_(std::vector<int>(static_cast<std::size_t>(2 * (r - 1)), d_)) {
  const double amp = std::abs(hy.dot(hx));
  scalar_ = amp * amp;
  const int inner = r - 1;
  if (inner == 0) {
    return;
  }
  effects_[0] = CMat::identity(d_);
  effects_[0] += CMat::projector(hx);
  effects_[0] *= Complex{0.5, 0.0};
  effects_[1] = quantum::swap_unitary(d_);
  effects_[1] += CMat::identity(d_ * d_);
  effects_[1] *= Complex{0.5, 0.0};
  effects_[2] = CMat::projector(hy);

  for (int pattern = 0; pattern < (1 << inner); ++pattern) {
    const auto bit = [&](int j) { return (pattern >> (j - 1)) & 1; };
    const auto kept = [&](int j) { return 2 * (j - 1) + bit(j); };
    const auto sent = [&](int j) { return 2 * (j - 1) + (1 - bit(j)); };
    std::vector<Effect> effects;
    effects.push_back({0, {kept(1)}});
    for (int j = 2; j <= inner; ++j) {
      effects.push_back({1, {sent(j - 1), kept(j)}});
    }
    effects.push_back({2, {sent(inner)}});
    patterns_.push_back(std::move(effects));
  }
}

CVec PatternExpansion::apply(const CVec& psi) const {
  if (patterns_.empty()) {
    return psi * Complex{scalar_, 0.0};
  }
  CVec out(psi.dim());
  for (const auto& pattern : patterns_) {
    CVec term = psi;
    for (const Effect& e : pattern) {
      quantum::apply_local(shape_, effects_[static_cast<std::size_t>(e.kind)],
                           e.regs, term);
    }
    out += term;
  }
  out *= Complex{1.0 / static_cast<double>(patterns_.size()), 0.0};
  return out;
}

double PatternExpansion::product_accept(const std::vector<CVec>& regs) const {
  if (patterns_.empty()) {
    return scalar_;
  }
  double total = 0.0;
  for (const auto& pattern : patterns_) {
    double term = 1.0;
    for (const Effect& e : pattern) {
      const CVec w = group_state(e.regs, regs);
      term *= w.dot(effects_[static_cast<std::size_t>(e.kind)] * w).real();
    }
    total += term;
  }
  return std::max(0.0, total / static_cast<double>(patterns_.size()));
}

CMat PatternExpansion::conditional_operator(
    int k, const std::vector<CVec>& regs) const {
  CMat cond(d_, d_);
  for (const auto& pattern : patterns_) {
    double scale = 1.0;
    CMat block(d_, d_);
    for (const Effect& e : pattern) {
      const CMat& op = effects_[static_cast<std::size_t>(e.kind)];
      if (std::find(e.regs.begin(), e.regs.end(), k) == e.regs.end()) {
        const CVec w = group_state(e.regs, regs);
        scale *= w.dot(op * w).real();
        continue;
      }
      for (int j = 0; j < d_; ++j) {
        const CVec ej = CVec::basis(d_, j);
        const CVec op_wj = op * group_state(e.regs, regs, k, &ej);
        for (int i = 0; i < d_; ++i) {
          const CVec ei = CVec::basis(d_, i);
          block(i, j) = group_state(e.regs, regs, k, &ei).dot(op_wj);
        }
      }
    }
    block *= Complex{scale, 0.0};
    cond += block;
  }
  cond *= Complex{1.0 / static_cast<double>(patterns_.size()), 0.0};
  return cond;
}

double PatternExpansion::best_product_accept(util::Rng& rng, int restarts,
                                             int sweeps) const {
  if (patterns_.empty()) {
    return scalar_;
  }
  const int nregs = register_count();
  double best = 0.0;
  for (int restart = 0; restart < restarts; ++restart) {
    std::vector<CVec> regs;
    for (int k = 0; k < nregs; ++k) {
      regs.push_back(quantum::haar_state(d_, rng));
    }
    double value = product_accept(regs);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (int k = 0; k < nregs; ++k) {
        const auto es = linalg::eigh(conditional_operator(k, regs));
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

}  // namespace dqma::test
