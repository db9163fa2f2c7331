// Layout-aware views over complex buffers: the kernel-facing argument types.
//
// The kernel layer (quantum/local_ops, the SIMD engine in linalg/simd) used
// to take raw `CVec&`/`CMat&` plus `.data()` pointers, which hard-coded the
// interleaved std::complex (AoS) layout into every signature. With the SIMD
// engine a second layout exists — split re/im arrays (SoA, see SplitBuffer
// in linalg/aligned.hpp) — so kernel arguments are now views that carry the
// layout tag, the extent, an optional matrix shape, and const-ness:
//
//   ConstComplexView  — read-only; constructible from const CVec/CMat/
//                       SplitBuffer (and from MutComplexView).
//   MutComplexView    — writable; constructible only from non-const owners,
//                       so const-correctness is enforced at the view
//                       boundary instead of by convention.
//
// The converting constructors are implicit on purpose: call sites keep
// reading `apply_local(plan, u, amp)` with `amp` a CVec — no consumer names
// a concrete layout, which is the point of the redesign. Kernels branch on
// `layout()` once at entry (or convert through linalg/simd's interleave /
// deinterleave routines) and never per element on hot paths.
#pragma once

#include <complex>

#include "util/require.hpp"

namespace dqma::linalg {

using Complex = std::complex<double>;

class CVec;
class CMat;
class SplitBuffer;

/// Memory layout of a complex buffer behind a view.
enum class Layout {
  kAoS,  ///< interleaved std::complex<double> (re,im pairs)
  kSoA,  ///< split arrays: all re parts, separately all im parts
};

/// Read-only layout-tagged view. Non-owning; the underlying buffer must
/// outlive the view (kernels take views by value and never store them).
class ConstComplexView {
 public:
  // Implicit: kernel call sites pass CVec/CMat/SplitBuffer directly.
  ConstComplexView(const CVec& v);              // NOLINT(runtime/explicit)
  ConstComplexView(const CMat& m);              // NOLINT(runtime/explicit)
  ConstComplexView(const SplitBuffer& b);       // NOLINT(runtime/explicit)

  Layout layout() const { return layout_; }
  /// Total number of complex entries.
  long long extent() const { return extent_; }
  /// Row length when the buffer is matrix-shaped (row-major); 0 for flat.
  long long cols() const { return cols_; }
  bool is_matrix() const { return cols_ > 0; }
  long long rows() const { return cols_ > 0 ? extent_ / cols_ : 0; }

  const Complex* aos_data() const {
    util::require(layout_ == Layout::kAoS, "aos_data() on an SoA view");
    return aos_;
  }
  const double* re() const {
    util::require(layout_ == Layout::kSoA, "re() on an AoS view");
    return re_;
  }
  const double* im() const {
    util::require(layout_ == Layout::kSoA, "im() on an AoS view");
    return im_;
  }

  /// Layout-dispatching element load (flat index). Cold-path helper: hot
  /// kernels branch on layout() once and walk raw pointers instead.
  Complex load(long long i) const {
    return layout_ == Layout::kAoS ? aos_[i] : Complex{re_[i], im_[i]};
  }

 protected:
  ConstComplexView() = default;

  Layout layout_ = Layout::kAoS;
  long long extent_ = 0;
  long long cols_ = 0;
  const Complex* aos_ = nullptr;
  const double* re_ = nullptr;
  const double* im_ = nullptr;
};

/// Writable layout-tagged view. Constructible only from non-const owners.
class MutComplexView : public ConstComplexView {
 public:
  MutComplexView(CVec& v);                      // NOLINT(runtime/explicit)
  MutComplexView(CMat& m);                      // NOLINT(runtime/explicit)
  MutComplexView(SplitBuffer& b);               // NOLINT(runtime/explicit)

  Complex* aos_data() const {
    util::require(layout_ == Layout::kAoS, "aos_data() on an SoA view");
    return const_cast<Complex*>(aos_);
  }
  double* re() const {
    util::require(layout_ == Layout::kSoA, "re() on an AoS view");
    return const_cast<double*>(re_);
  }
  double* im() const {
    util::require(layout_ == Layout::kSoA, "im() on an AoS view");
    return const_cast<double*>(im_);
  }

  /// Layout-dispatching element store (flat index); cold-path helper.
  void store(long long i, Complex v) const {
    if (layout_ == Layout::kAoS) {
      const_cast<Complex*>(aos_)[i] = v;
    } else {
      const_cast<double*>(re_)[i] = v.real();
      const_cast<double*>(im_)[i] = v.imag();
    }
  }
};

}  // namespace dqma::linalg
