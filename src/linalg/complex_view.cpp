#include "linalg/complex_view.hpp"

#include "linalg/aligned.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace dqma::linalg {
namespace {

// Empty owners yield a null view; &v[0] on an empty vector is UB.
const Complex* first_or_null(const CVec& v) {
  return v.dim() > 0 ? &v[0] : nullptr;
}
const Complex* first_or_null(const CMat& m) {
  return m.rows() > 0 && m.cols() > 0 ? &m(0, 0) : nullptr;
}

}  // namespace

ConstComplexView::ConstComplexView(const CVec& v) {
  layout_ = Layout::kAoS;
  extent_ = v.dim();
  aos_ = first_or_null(v);
}

ConstComplexView::ConstComplexView(const CMat& m) {
  layout_ = Layout::kAoS;
  extent_ = static_cast<long long>(m.rows()) * m.cols();
  cols_ = m.cols();
  aos_ = first_or_null(m);
}

ConstComplexView::ConstComplexView(const SplitBuffer& b) {
  layout_ = Layout::kSoA;
  extent_ = b.size();
  cols_ = b.cols();
  re_ = b.re();
  im_ = b.im();
}

MutComplexView::MutComplexView(CVec& v) {
  layout_ = Layout::kAoS;
  extent_ = v.dim();
  aos_ = first_or_null(v);
}

MutComplexView::MutComplexView(CMat& m) {
  layout_ = Layout::kAoS;
  extent_ = static_cast<long long>(m.rows()) * m.cols();
  cols_ = m.cols();
  aos_ = first_or_null(m);
}

MutComplexView::MutComplexView(SplitBuffer& b) {
  layout_ = Layout::kSoA;
  extent_ = b.size();
  cols_ = b.cols();
  re_ = b.re();
  im_ = b.im();
}

}  // namespace dqma::linalg
