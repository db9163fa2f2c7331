// Views over interleaved complex buffers: the kernel-facing argument types.
//
// The kernel layer (quantum/local_ops) takes views instead of raw
// `CVec&`/`CMat&` plus `.data()` pointers. A view carries a pointer to
// interleaved std::complex storage, the extent, an optional matrix shape,
// and const-ness:
//
//   ConstComplexView  — read-only; constructible from const CVec/CMat (and
//                       from MutComplexView).
//   MutComplexView    — writable; constructible only from non-const owners,
//                       so const-correctness is enforced at the view
//                       boundary instead of by convention.
//
// The converting constructors are implicit on purpose: call sites keep
// reading `apply_local(plan, u, amp)` with `amp` a CVec. Kernels that run
// split-complex SIMD arithmetic deinterleave into SplitBuffer scratch
// (linalg/aligned.hpp) themselves; no view ever points at split storage.
#pragma once

#include <complex>

namespace dqma::linalg {

using Complex = std::complex<double>;

class CVec;
class CMat;

/// Read-only view. Non-owning; the underlying buffer must outlive the view
/// (kernels take views by value and never store them).
class ConstComplexView {
 public:
  // Implicit: kernel call sites pass CVec/CMat directly.
  ConstComplexView(const CVec& v);              // NOLINT(runtime/explicit)
  ConstComplexView(const CMat& m);              // NOLINT(runtime/explicit)

  /// Total number of complex entries.
  long long extent() const { return extent_; }
  /// Row length when the buffer is matrix-shaped (row-major); 0 for flat.
  long long cols() const { return cols_; }
  bool is_matrix() const { return cols_ > 0; }
  long long rows() const { return cols_ > 0 ? extent_ / cols_ : 0; }

  const Complex* data() const { return data_; }

  /// Element load (flat index).
  Complex load(long long i) const { return data_[i]; }

 protected:
  long long extent_ = 0;
  long long cols_ = 0;
  const Complex* data_ = nullptr;
};

/// Writable view. Constructible only from non-const owners.
class MutComplexView : public ConstComplexView {
 public:
  MutComplexView(CVec& v);                      // NOLINT(runtime/explicit)
  MutComplexView(CMat& m);                      // NOLINT(runtime/explicit)

  Complex* data() const { return const_cast<Complex*>(data_); }
};

}  // namespace dqma::linalg
