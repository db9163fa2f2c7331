#include "linalg/complex_view.hpp"

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
  extent_ = v.dim();
  data_ = first_or_null(v);
}

ConstComplexView::ConstComplexView(const CMat& m) {
  extent_ = static_cast<long long>(m.rows()) * m.cols();
  cols_ = m.cols();
  data_ = first_or_null(m);
}

MutComplexView::MutComplexView(CVec& v) : ConstComplexView(v) {}

MutComplexView::MutComplexView(CMat& m) : ConstComplexView(m) {}

}  // namespace dqma::linalg
