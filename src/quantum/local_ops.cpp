#include "quantum/local_ops.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/aligned.hpp"
#include "linalg/simd.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"

namespace dqma::quantum {

using linalg::ConstComplexView;
using linalg::MutComplexView;
using linalg::SplitBuffer;
using util::require;

namespace simd = linalg::simd;

namespace {

/// Enumerates the flat offsets of every row-major assignment of `regs`
/// (last register least significant) by odometer, avoiding a div/mod chain
/// per assignment.
std::vector<long long> enumerate_offsets(const RegisterShape& shape,
                                         const std::vector<int>& regs,
                                         const std::vector<long long>& stride,
                                         long long count) {
  std::vector<long long> offsets(static_cast<std::size_t>(count), 0);
  std::vector<int> idx(regs.size(), 0);
  long long off = 0;
  for (long long t = 0; t < count; ++t) {
    offsets[static_cast<std::size_t>(t)] = off;
    for (int k = static_cast<int>(regs.size()) - 1; k >= 0; --k) {
      const int r = regs[static_cast<std::size_t>(k)];
      const int d = shape.dim(r);
      if (++idx[static_cast<std::size_t>(k)] < d) {
        off += stride[static_cast<std::size_t>(r)];
        break;
      }
      off -= stride[static_cast<std::size_t>(r)] * (d - 1);
      idx[static_cast<std::size_t>(k)] = 0;
    }
  }
  return offsets;
}

/// Exact zero test for the sparsity skips, component-wise. Deliberately NOT
/// std::norm(v) == 0.0 (its squares underflow to zero on subnormal entries,
/// silently dropping them) and not |re| + |im| == 0.0 (the fabs/add chain
/// measured ~5x slower than two compares on the matrix-free power
/// iteration).
inline bool is_zero(const Complex& v) {
  return v.real() == 0.0 && v.imag() == 0.0;
}

/// op entry under the optional adjoint view.
inline Complex op_entry(const CMat& op, long long i, long long j,
                        bool adjoint) {
  return adjoint ? std::conj(op(static_cast<int>(j), static_cast<int>(i)))
                 : op(static_cast<int>(i), static_cast<int>(j));
}

void require_op_shape(const LocalOpPlan& plan, const CMat& op,
                      const char* what) {
  require(static_cast<long long>(op.rows()) == plan.block() &&
              static_cast<long long>(op.cols()) == plan.block(),
          what);
}

/// Whether a kernel should take the split-complex path: whenever a vector
/// level is active and the packed operator is dense enough to beat the
/// scalar zero-skip loop. Pure function of (level, op) — never thread-count
/// dependent.
bool use_split_path(simd::Level level, const simd::PackedOp& packed) {
  return level != simd::Level::kScalar && packed.dense_enough();
}

/// Strided gather of the block at `base` into split buffers.
void gather_block(ConstComplexView view, long long base,
                  const std::vector<long long>& toff, long long b,
                  double* re, double* im) {
  const Complex* p = view.data();
  for (long long t = 0; t < b; ++t) {
    const Complex v = p[base + toff[static_cast<std::size_t>(t)]];
    re[t] = v.real();
    im[t] = v.imag();
  }
}

/// Strided scatter of split buffers back to the block at `base`.
void scatter_block(MutComplexView view, long long base,
                   const std::vector<long long>& toff, long long b,
                   const double* re, const double* im) {
  Complex* p = view.data();
  for (long long t = 0; t < b; ++t) {
    p[base + toff[static_cast<std::size_t>(t)]] = Complex{re[t], im[t]};
  }
}

}  // namespace

LocalOpPlan::LocalOpPlan(const RegisterShape& shape, std::vector<int> regs)
    : regs_(std::move(regs)) {
  const int nregs = shape.register_count();
  std::vector<bool> is_target(static_cast<std::size_t>(nregs), false);
  for (const int r : regs_) {
    require(r >= 0 && r < nregs, "LocalOpPlan: register out of range");
    require(!is_target[static_cast<std::size_t>(r)],
            "LocalOpPlan: duplicate register");
    is_target[static_cast<std::size_t>(r)] = true;
  }

  std::vector<long long> stride(static_cast<std::size_t>(nregs), 1);
  for (int r = nregs - 2; r >= 0; --r) {
    stride[static_cast<std::size_t>(r)] =
        stride[static_cast<std::size_t>(r + 1)] * shape.dim(r + 1);
  }

  total_ = shape.total_dim();
  for (const int r : regs_) {
    block_ *= shape.dim(r);
  }
  target_off_ = enumerate_offsets(shape, regs_, stride, block_);

  std::vector<int> free_regs;
  long long free_count = 1;
  for (int r = 0; r < nregs; ++r) {
    if (!is_target[static_cast<std::size_t>(r)]) {
      free_regs.push_back(r);
      free_count *= shape.dim(r);
    }
  }
  free_off_ = enumerate_offsets(shape, free_regs, stride, free_count);
}

void apply_local(const LocalOpPlan& plan, const CMat& op,
                 MutComplexView psi) {
  require(psi.extent() == plan.total_dim() && !psi.is_matrix(),
          "apply_local: state dimension mismatch");
  require_op_shape(plan, op, "apply_local: operator dimension mismatch");
  const long long b = plan.block();
  const auto& toff = plan.target_offsets();
  const auto& foff = plan.free_offsets();
  // SIMD level resolved once, on the calling thread (LevelScope overrides
  // do not reach pool workers); captured by the closures below.
  const simd::Level level = simd::active();
  const simd::PackedOp packed =
      level != simd::Level::kScalar
          ? simd::pack_operator(op, /*transpose=*/false, /*conjugate=*/false)
          : simd::PackedOp{};
  if (use_split_path(level, packed)) {
    // Split path: gather each free block into SoA scratch, run the packed
    // block operator as vectorized column axpys, scatter back. Free blocks
    // touch disjoint amplitude sets, so chunks of blocks run in parallel.
    sweep::parallel_for(
        foff.size(), sweep::grain_for_ops(static_cast<std::size_t>(b * b)),
        [&](std::size_t f_begin, std::size_t f_end) {
          SplitBuffer in(b);
          SplitBuffer out(b);
          for (std::size_t f = f_begin; f < f_end; ++f) {
            const long long base = foff[f];
            gather_block(psi, base, toff, b, in.re(), in.im());
            simd::block_apply(level, packed, in.re(), in.im(), out.re(),
                              out.im());
            scatter_block(psi, base, toff, b, out.re(), out.im());
          }
        });
    return;
  }
  // Scalar AoS reference path — kept verbatim from the pre-SIMD engine
  // (byte-identical output under DQMA_SIMD=scalar).
  Complex* amps = psi.data();
  sweep::parallel_for(
      foff.size(), sweep::grain_for_ops(static_cast<std::size_t>(b * b)),
      [&](std::size_t f_begin, std::size_t f_end) {
        linalg::AlignedVector<Complex> in(static_cast<std::size_t>(b));
        linalg::AlignedVector<Complex> out(static_cast<std::size_t>(b));
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const long long base = foff[f];
          for (long long t = 0; t < b; ++t) {
            in[static_cast<std::size_t>(t)] =
                amps[base + toff[static_cast<std::size_t>(t)]];
          }
          for (long long i = 0; i < b; ++i) {
            Complex acc{0.0, 0.0};
            for (long long j = 0; j < b; ++j) {
              const Complex v = op(static_cast<int>(i), static_cast<int>(j));
              if (is_zero(v)) continue;
              acc += v * in[static_cast<std::size_t>(j)];
            }
            out[static_cast<std::size_t>(i)] = acc;
          }
          for (long long t = 0; t < b; ++t) {
            amps[base + toff[static_cast<std::size_t>(t)]] =
                out[static_cast<std::size_t>(t)];
          }
        }
      });
}

void apply_local(const RegisterShape& shape, const CMat& op,
                 const std::vector<int>& regs, MutComplexView psi) {
  const LocalOpPlan plan(shape, regs);
  apply_local(plan, op, psi);
}

namespace {

double expectation_vector(const LocalOpPlan& plan, const CMat& effect,
                          ConstComplexView psi) {
  const long long b = plan.block();
  const auto& toff = plan.target_offsets();
  const auto& foff = plan.free_offsets();
  const simd::Level level = simd::active();
  const simd::PackedOp packed =
      level != simd::Level::kScalar
          ? simd::pack_operator(effect, /*transpose=*/false,
                                /*conjugate=*/false)
          : simd::PackedOp{};
  // Chunked reduction over free blocks: per-chunk partial sums combined in
  // chunk order (sweep/parallel.hpp), so the value is identical at any
  // thread count.
  if (use_split_path(level, packed)) {
    const Complex acc = sweep::parallel_reduce<Complex>(
        foff.size(), sweep::grain_for_ops(static_cast<std::size_t>(b * b)),
        Complex{0.0, 0.0},
        [&](std::size_t f_begin, std::size_t f_end) {
          SplitBuffer in(b);
          SplitBuffer img(b);
          Complex part{0.0, 0.0};
          for (std::size_t f = f_begin; f < f_end; ++f) {
            const long long base = foff[f];
            gather_block(psi, base, toff, b, in.re(), in.im());
            simd::block_apply(level, packed, in.re(), in.im(), img.re(),
                              img.im());
            // <block| E |block> as one conjugated split dot.
            part += simd::dot(level, /*conj_a=*/true, in.re(), in.im(),
                              img.re(), img.im(), b);
          }
          return part;
        },
        [](Complex a, Complex c) { return a + c; });
    return acc.real();
  }
  const Complex* amps = psi.data();
  const Complex acc = sweep::parallel_reduce<Complex>(
      foff.size(), sweep::grain_for_ops(static_cast<std::size_t>(b * b)),
      Complex{0.0, 0.0},
      [&](std::size_t f_begin, std::size_t f_end) {
        Complex part{0.0, 0.0};
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const long long base = foff[f];
          for (long long i = 0; i < b; ++i) {
            const Complex ci =
                std::conj(amps[base + toff[static_cast<std::size_t>(i)]]);
            if (is_zero(ci)) continue;
            Complex row{0.0, 0.0};
            for (long long j = 0; j < b; ++j) {
              const Complex v = effect(static_cast<int>(i), static_cast<int>(j));
              if (is_zero(v)) continue;
              row += v * amps[base + toff[static_cast<std::size_t>(j)]];
            }
            part += ci * row;
          }
        }
        return part;
      },
      [](Complex a, Complex c) { return a + c; });
  return acc.real();
}

double expectation_density(const LocalOpPlan& plan, const CMat& effect,
                           ConstComplexView rho) {
  const long long d = plan.total_dim();
  const long long b = plan.block();
  const auto& toff = plan.target_offsets();
  const auto& foff = plan.free_offsets();
  // tr((E tensor I) rho) = sum_base sum_{i,j} E(i,j) rho(base+t_j, base+t_i);
  // chunked over free blocks, partials combined in chunk order. The access
  // pattern is a strided 2-D gather with O(b^2) touched entries per block —
  // memory-latency bound, so it stays on the zero-skip scalar loop at
  // every dispatch level.
  const Complex* amps = rho.data();
  const Complex acc = sweep::parallel_reduce<Complex>(
      foff.size(), sweep::grain_for_ops(static_cast<std::size_t>(b * b)),
      Complex{0.0, 0.0},
      [&](std::size_t f_begin, std::size_t f_end) {
        Complex part{0.0, 0.0};
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const long long base = foff[f];
          for (long long i = 0; i < b; ++i) {
            for (long long j = 0; j < b; ++j) {
              const Complex v = effect(static_cast<int>(i), static_cast<int>(j));
              if (is_zero(v)) continue;
              const long long at =
                  (base + toff[static_cast<std::size_t>(j)]) * d +
                  (base + toff[static_cast<std::size_t>(i)]);
              part += v * amps[at];
            }
          }
        }
        return part;
      },
      [](Complex a, Complex c) { return a + c; });
  return acc.real();
}

}  // namespace

double expectation_local(const LocalOpPlan& plan, const CMat& effect,
                         ConstComplexView state) {
  require_op_shape(plan, effect,
                   "expectation_local: effect dimension mismatch");
  if (state.is_matrix()) {
    require(state.rows() == plan.total_dim() &&
                state.cols() == plan.total_dim(),
            "expectation_local: density dimension mismatch");
    return expectation_density(plan, effect, state);
  }
  require(state.extent() == plan.total_dim(),
          "expectation_local: state dimension mismatch");
  return expectation_vector(plan, effect, state);
}

namespace {

/// Row-mixing pass shared by apply_left_local and sandwich_local. Free
/// blocks mix disjoint row sets, so chunks of blocks run in parallel; each
/// chunk owns one b x cols workspace reused across its blocks. The split
/// path packs the block's rows to SoA and runs each coefficient as one
/// vectorized axpy over a full row — same (j outer, i inner) ascending
/// order and the same exact-zero coefficient skip as the scalar loop.
void apply_left_blocks(const LocalOpPlan& plan, const CMat& op,
                       bool adjoint_op, MutComplexView a) {
  const long long b = plan.block();
  const long long cols = a.cols();
  const auto& toff = plan.target_offsets();
  const auto& foff = plan.free_offsets();
  const simd::Level level = simd::active();
  if (level != simd::Level::kScalar) {
    // m(i, j) = op_entry(i, j, adjoint): column-major pack so coefficient
    // (i, j) sits at [j * b + i].
    const simd::PackedOp packed =
        simd::pack_operator(op, /*transpose=*/adjoint_op,
                            /*conjugate=*/adjoint_op);
    sweep::parallel_for(
        foff.size(),
        sweep::grain_for_ops(static_cast<std::size_t>(b * b * cols)),
        [&](std::size_t f_begin, std::size_t f_end) {
          SplitBuffer src(b * cols);
          SplitBuffer dst(b * cols);
          for (std::size_t f = f_begin; f < f_end; ++f) {
            const long long base = foff[f];
            for (long long j = 0; j < b; ++j) {
              const long long row =
                  base + toff[static_cast<std::size_t>(j)];
              simd::deinterleave(level, a.data() + row * cols, cols,
                                 src.re() + j * cols, src.im() + j * cols);
            }
            std::fill(dst.re(), dst.re() + b * cols, 0.0);
            std::fill(dst.im(), dst.im() + b * cols, 0.0);
            for (long long j = 0; j < b; ++j) {
              for (long long i = 0; i < b; ++i) {
                const double vr =
                    packed.re[static_cast<std::size_t>(j * b + i)];
                const double vi =
                    packed.im[static_cast<std::size_t>(j * b + i)];
                if (vr == 0.0 && vi == 0.0) continue;
                simd::axpy(level, vr, vi, src.re() + j * cols,
                           src.im() + j * cols, dst.re() + i * cols,
                           dst.im() + i * cols, cols);
              }
            }
            for (long long i = 0; i < b; ++i) {
              const long long row =
                  base + toff[static_cast<std::size_t>(i)];
              simd::interleave(level, dst.re() + i * cols,
                               dst.im() + i * cols, cols,
                               a.data() + row * cols);
            }
          }
        });
    return;
  }
  Complex* amps = a.data();
  sweep::parallel_for(
      foff.size(),
      sweep::grain_for_ops(static_cast<std::size_t>(b * b * cols)),
      [&](std::size_t f_begin, std::size_t f_end) {
        linalg::AlignedVector<Complex> ws(static_cast<std::size_t>(b * cols));
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const long long base = foff[f];
          std::fill(ws.begin(), ws.end(), Complex{0.0, 0.0});
          for (long long j = 0; j < b; ++j) {
            const Complex* src =
                amps + (base + toff[static_cast<std::size_t>(j)]) * cols;
            for (long long i = 0; i < b; ++i) {
              const Complex v = op_entry(op, i, j, adjoint_op);
              if (is_zero(v)) continue;
              Complex* dst = ws.data() + static_cast<std::size_t>(i * cols);
              for (long long c = 0; c < cols; ++c) {
                dst[static_cast<std::size_t>(c)] += v * src[c];
              }
            }
          }
          for (long long i = 0; i < b; ++i) {
            Complex* dst =
                amps + (base + toff[static_cast<std::size_t>(i)]) * cols;
            const Complex* src = ws.data() + static_cast<std::size_t>(i * cols);
            std::copy(src, src + cols, dst);
          }
        }
      });
}

/// Column-mixing pass shared by apply_right_local and sandwich_local; rows
/// are independent, so chunks of rows run in parallel with per-chunk
/// gather/scatter buffers. The split path packs op so that
/// m(j, i) = op_entry(i, j, adjoint) and runs each free block through the
/// vectorized block_apply.
void apply_right_rowwise(const LocalOpPlan& plan, const CMat& op,
                         bool adjoint_op, MutComplexView a) {
  const long long b = plan.block();
  const long long cols = a.cols();
  const auto& toff = plan.target_offsets();
  const auto& foff = plan.free_offsets();
  const std::size_t row_ops = foff.size() * static_cast<std::size_t>(b * b);
  const simd::Level level = simd::active();
  // out_j = sum_i in_i * op_entry(i, j, adjoint) means the packed block
  // operator is m(o=j, s=i) = op_entry(s, o, adjoint): the plain transpose
  // without adjoint, the conjugate (untransposed) with it.
  const simd::PackedOp packed =
      level != simd::Level::kScalar
          ? simd::pack_operator(op, /*transpose=*/!adjoint_op,
                                /*conjugate=*/adjoint_op)
          : simd::PackedOp{};
  if (use_split_path(level, packed)) {
    sweep::parallel_for(
        static_cast<std::size_t>(a.rows()), sweep::grain_for_ops(row_ops),
        [&](std::size_t x_begin, std::size_t x_end) {
          SplitBuffer in(b);
          SplitBuffer out(b);
          for (std::size_t x = x_begin; x < x_end; ++x) {
            const long long row_base = static_cast<long long>(x) * cols;
            for (const long long base : foff) {
              gather_block(a, row_base + base, toff, b, in.re(), in.im());
              simd::block_apply(level, packed, in.re(), in.im(), out.re(),
                                out.im());
              scatter_block(a, row_base + base, toff, b, out.re(), out.im());
            }
          }
        });
    return;
  }
  Complex* amps = a.data();
  sweep::parallel_for(
      static_cast<std::size_t>(a.rows()), sweep::grain_for_ops(row_ops),
      [&](std::size_t x_begin, std::size_t x_end) {
        linalg::AlignedVector<Complex> in(static_cast<std::size_t>(b));
        linalg::AlignedVector<Complex> out(static_cast<std::size_t>(b));
        for (std::size_t x = x_begin; x < x_end; ++x) {
          Complex* row = amps + static_cast<long long>(x) * cols;
          for (const long long base : foff) {
            for (long long i = 0; i < b; ++i) {
              in[static_cast<std::size_t>(i)] = row[static_cast<std::size_t>(
                  base + toff[static_cast<std::size_t>(i)])];
            }
            for (long long j = 0; j < b; ++j) {
              Complex acc{0.0, 0.0};
              for (long long i = 0; i < b; ++i) {
                const Complex v = op_entry(op, i, j, adjoint_op);
                if (is_zero(v)) continue;
                acc += in[static_cast<std::size_t>(i)] * v;
              }
              out[static_cast<std::size_t>(j)] = acc;
            }
            for (long long j = 0; j < b; ++j) {
              row[static_cast<std::size_t>(
                  base + toff[static_cast<std::size_t>(j)])] =
                  out[static_cast<std::size_t>(j)];
            }
          }
        }
      });
}

/// Trace of a square matrix-shaped view.
Complex view_trace(ConstComplexView a) {
  Complex acc{0.0, 0.0};
  for (long long i = 0; i < a.rows(); ++i) {
    acc += a.load(i * a.cols() + i);
  }
  return acc;
}

/// In-place real rescale of a view.
void view_scale(MutComplexView a, double s) {
  Complex* p = a.data();
  for (long long i = 0; i < a.extent(); ++i) {
    p[i] *= s;
  }
}

}  // namespace

void apply_left_local(const LocalOpPlan& plan, const CMat& op,
                      MutComplexView a, bool adjoint_op) {
  require(a.is_matrix() && a.rows() == plan.total_dim(),
          "apply_left_local: row dimension mismatch");
  require_op_shape(plan, op, "apply_left_local: operator dimension mismatch");
  apply_left_blocks(plan, op, adjoint_op, a);
}

void apply_right_local(const LocalOpPlan& plan, const CMat& op,
                       MutComplexView a, bool adjoint_op) {
  require(a.is_matrix() && a.cols() == plan.total_dim(),
          "apply_right_local: column dimension mismatch");
  require_op_shape(plan, op, "apply_right_local: operator dimension mismatch");
  apply_right_rowwise(plan, op, adjoint_op, a);
}

void sandwich_local(const LocalOpPlan& plan, const CMat& u,
                    MutComplexView rho) {
  require(rho.is_matrix() && rho.rows() == plan.total_dim() &&
              rho.cols() == plan.total_dim(),
          "sandwich_local: density dimension mismatch");
  require_op_shape(plan, u, "sandwich_local: operator dimension mismatch");
  // rho <- (U tensor I) rho, then rho <- rho (U^dagger tensor I).
  apply_left_blocks(plan, u, /*adjoint_op=*/false, rho);
  apply_right_rowwise(plan, u, /*adjoint_op=*/true, rho);
}

double project_local(const LocalOpPlan& plan, const CMat& effect,
                     MutComplexView rho) {
  require(rho.is_matrix() && rho.rows() == plan.total_dim() &&
              rho.cols() == plan.total_dim(),
          "project_local: density dimension mismatch");
  require_op_shape(plan, effect, "project_local: effect dimension mismatch");
  // Branch probability first, via tr(E rho E^dagger) = tr((E^dagger E) rho)
  // with the b x b product E^dagger E: the ~0 branch leaves rho untouched
  // without ever copying it.
  const CMat gram = effect.adjoint_times(effect);
  if (expectation_local(plan, gram, rho) < 1e-14) {
    return 0.0;
  }
  sandwich_local(plan, effect, rho);
  const double p = view_trace(rho).real();
  view_scale(rho, 1.0 / p);
  return p;
}

}  // namespace dqma::quantum
