// Microbenchmarks of the simulation-primitive kernels (the cost drivers
// behind every table harness), timed with plain repetition loops so their
// wall times flow into the JSON trajectory (per-point wall_ms, emitted
// under --timings).
//
// Deterministic metrics record the kernel configuration (dimension,
// iterations) plus a checksum of the computed values — so the default
// (timing-free) JSON still pins the kernels' numerical outputs.
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "dqma/attacks.hpp"
#include "dqma/eq_path.hpp"
#include "dqma/exact_runner.hpp"
#include "experiments.hpp"
#include "fingerprint/fingerprint.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/permanent.hpp"
#include "linalg/simd.hpp"
#include "qtest/permutation_test.hpp"
#include "qtest/swap_test.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "sweep/parallel.hpp"
#include "sweep/registry.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dqma::bench {
namespace {

using util::Bitstring;
using util::Rng;
using util::Table;

void run(sweep::ExperimentContext& ctx) {
  std::ostream& out = ctx.out();
  util::print_banner(
      out, "microbenchmarks of the simulation primitives",
      "Fixed-iteration kernels; wall times are recorded per point (JSON:\n"
      "--timings). The checksum column pins each kernel's numerics.");

  const int scale = ctx.smoke_select(1, 8);  // smoke: 8x fewer iterations
  std::vector<sweep::ParamPoint> points;
  const auto add = [&](const char* kernel, int size, int iters) {
    points.push_back(sweep::ParamPoint()
                         .set("kernel", kernel)
                         .set("size", size)
                         .set("iters", std::max(1, iters / scale)));
  };
  for (int n : {32, 256, 2048}) add("fingerprint_state", n, 400);
  for (int n : {32, 256, 2048}) add("fingerprint_overlap", n, 4000);
  for (int d : {64, 1024}) add("swap_test", d, 4000);
  for (int k : {2, 4, 8, 12}) add("permutation_test_gram", k, 200);
  for (int r : {4, 16, 64}) add("chain_accept_dp", r, 40);
  for (int d : {8, 32, 64}) add("hermitian_eigh", d, 8);
  for (int r : {2, 3, 4}) add("exact_acceptance_operator", r, 4);
  for (int k : {4, 8, 12}) add("permanent", k, 40);
  // Matrix-free local-operator engine kernels; 1 << 18 is above the old
  // 1 << 14 exact-engine cap and only reachable matrix-free.
  for (int n : {1 << 14, 1 << 16, 1 << 18}) add("local_ops_apply", n, 24);
  for (int d : {256, 1024}) add("local_ops_sandwich", d, 6);

  const auto results = ctx.sweep(
      "kernels", points, [](const sweep::ParamPoint& p, Rng& rng) {
        const auto& kernel = p.get_string("kernel");
        const int size = static_cast<int>(p.get_int("size"));
        const int iters = static_cast<int>(p.get_int("iters"));
        double checksum = 0.0;
        if (kernel == "fingerprint_state") {
          const fingerprint::FingerprintScheme scheme(size, 0.3);
          const Bitstring x = Bitstring::random(size, rng);
          for (int i = 0; i < iters; ++i) {
            checksum += scheme.state(x).norm();
          }
        } else if (kernel == "fingerprint_overlap") {
          const fingerprint::FingerprintScheme scheme(size, 0.3);
          const Bitstring x = Bitstring::random(size, rng);
          const Bitstring y = Bitstring::random(size, rng);
          for (int i = 0; i < iters; ++i) {
            checksum += scheme.overlap(x, y);
          }
        } else if (kernel == "swap_test") {
          const auto a = quantum::haar_state(size, rng);
          const auto b = quantum::haar_state(size, rng);
          for (int i = 0; i < iters; ++i) {
            checksum += qtest::swap_test_accept(a, b);
          }
        } else if (kernel == "permutation_test_gram") {
          std::vector<linalg::CVec> factors;
          for (int i = 0; i < size; ++i) {
            factors.push_back(quantum::haar_state(64, rng));
          }
          for (int i = 0; i < iters; ++i) {
            checksum += qtest::permutation_test_accept(factors);
          }
        } else if (kernel == "chain_accept_dp") {
          const int n = 64;
          const protocol::EqPathProtocol protocol(n, size, 0.3, 1);
          const Bitstring x = Bitstring::random(n, rng);
          Bitstring y = Bitstring::random(n, rng);
          if (x == y) y.flip(0);
          const auto hx = protocol.scheme().state(x);
          const auto hy = protocol.scheme().state(y);
          const auto attack = protocol::rotation_attack(hx, hy, size - 1);
          for (int i = 0; i < iters; ++i) {
            checksum += protocol.single_rep_accept(x, y, attack);
          }
        } else if (kernel == "hermitian_eigh") {
          const auto rho = quantum::random_density(size, rng);
          for (int i = 0; i < iters; ++i) {
            checksum += linalg::eigh(rho).values.back();
          }
        } else if (kernel == "exact_acceptance_operator") {
          const linalg::CVec a = linalg::CVec::basis(2, 0);
          const linalg::CVec b = linalg::CVec::basis(2, 1);
          for (int i = 0; i < iters; ++i) {
            const protocol::ExactEqPathAnalyzer exact(a, b, size);
            checksum += exact.worst_case_accept();
          }
        } else if (kernel == "local_ops_apply") {
          // Two-register (16-dim) unitary applied to an n-qudit state vector
          // by stride arithmetic, on non-adjacent register pairs.
          int nregs = 0;
          while ((1 << (2 * nregs)) < size) ++nregs;
          const quantum::RegisterShape shape(
              std::vector<int>(static_cast<std::size_t>(nregs), 4));
          const linalg::CMat u = quantum::haar_unitary(16, rng);
          linalg::CVec psi(size);
          psi[0] = linalg::Complex{1.0, 0.0};
          linalg::CMat e00(4, 4);
          e00(0, 0) = linalg::Complex{1.0, 0.0};
          const quantum::LocalOpPlan probe(shape, {0});
          // Plans hoisted out of the timed loop so wall_ms measures the
          // stride-apply pass, not plan construction.
          std::vector<quantum::LocalOpPlan> pair_plans;
          for (int a = 0; a < nregs; ++a) {
            pair_plans.emplace_back(
                shape, std::vector<int>{a, (a + nregs / 2) % nregs});
          }
          for (int i = 0; i < iters; ++i) {
            quantum::apply_local(pair_plans[static_cast<std::size_t>(i % nregs)],
                                 u, psi);
            checksum += quantum::expectation_local(probe, e00, psi);
          }
        } else if (kernel == "local_ops_sandwich") {
          // U rho U^dagger on a dense density matrix through the reused-
          // workspace sandwich pass (never embedding U).
          const quantum::RegisterShape shape({size / 4, 4});
          linalg::CMat rho =
              linalg::CMat::projector(quantum::haar_state(size, rng));
          const linalg::CMat u = quantum::haar_unitary(4, rng);
          const quantum::LocalOpPlan plan(shape, {1});
          linalg::CMat e00(4, 4);
          e00(0, 0) = linalg::Complex{1.0, 0.0};
          for (int i = 0; i < iters; ++i) {
            quantum::sandwich_local(plan, u, rho);
            checksum += quantum::expectation_local(plan, e00, rho);
          }
        } else {  // permanent
          std::vector<linalg::CVec> factors;
          for (int i = 0; i < size; ++i) {
            factors.push_back(quantum::haar_state(16, rng));
          }
          linalg::CMat gram(size, size);
          for (int i = 0; i < size; ++i) {
            for (int j = 0; j < size; ++j) {
              gram(i, j) = factors[static_cast<std::size_t>(i)].dot(
                  factors[static_cast<std::size_t>(j)]);
            }
          }
          for (int i = 0; i < iters; ++i) {
            checksum += linalg::permanent(gram).real();
          }
        }
        return sweep::Metrics().set("checksum", checksum);
      });

  Table table({"kernel", "size", "iters", "checksum", "us/iter"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (results[i].skipped) continue;  // owned by another --shard
    const double iters =
        static_cast<double>(points[i].get_int("iters"));
    table.add_row({points[i].get_string("kernel"),
                   Table::fmt(points[i].get_int("size")),
                   Table::fmt(points[i].get_int("iters")),
                   Table::fmt(results[i].metrics.get_double("checksum")),
                   Table::fmt(results[i].wall_ms * 1000.0 / iters, 2)});
  }
  table.print(out);

  {
    util::print_banner(
        out, "parallel kernels: threads 1 vs max at fixed partitioning",
        "The threaded kernels (apply_local / blocked GEMM / sandwich) at\n"
        "increasing scale, each point pinned to a kernel thread count\n"
        "(threads 0 = the full --threads budget). Checksums are\n"
        "byte-identical across the thread axis by the determinism\n"
        "contract; wall times (JSON: --timings) record the intra-instance\n"
        "speedup trajectory.");
    // Each thread-axis pair of a (kernel, size) is one unit, run serially
    // on this thread: each point pins its kernel thread count via
    // KernelThreadScope, and both points draw from copies of the unit's
    // stream, so the checksum equality is visible in the JSON. threads 0
    // resolves to the --threads budget below, so `--threads 1` stays
    // genuinely serial.
    std::vector<sweep::ParamPoint> points;
    const auto scales = ctx.smoke_select(
        std::vector<int>{1 << 14, 1 << 16, 1 << 18}, {1 << 14, 1 << 16});
    for (const char* kernel : {"apply_local", "gemm", "sandwich"}) {
      for (const int scale : scales) {
        for (const int threads : {1, 0}) {
          points.push_back(sweep::ParamPoint()
                               .set("kernel", kernel)
                               .set("size", scale)
                               .set("threads", threads));
        }
      }
    }
    const auto run_point = [&ctx](const sweep::ParamPoint& p, Rng rng) {
      const auto& kernel = p.get_string("kernel");
      const int scale = static_cast<int>(p.get_int("size"));
      const int threads = static_cast<int>(p.get_int("threads"));
      // threads 0 = "all of the --threads budget" (the sweep pool's
      // resolved size), NOT raw hardware concurrency: --threads 1 must
      // stay serial even on a many-core host.
      const sweep::KernelThreadScope scope(
          threads == 0 ? ctx.pool().thread_count() : threads);
      const auto start = std::chrono::steady_clock::now();
      double checksum = 0.0;
      if (kernel == "apply_local") {
        // 16-dim two-register unitary over an n-amplitude state by stride
        // arithmetic (scale = state dimension).
        int nregs = 0;
        while ((1 << (2 * nregs)) < scale) ++nregs;
        const quantum::RegisterShape shape(
            std::vector<int>(static_cast<std::size_t>(nregs), 4));
        const linalg::CMat u = quantum::haar_unitary(16, rng);
        linalg::CVec psi(scale);
        psi[0] = linalg::Complex{1.0, 0.0};
        linalg::CMat e00(4, 4);
        e00(0, 0) = linalg::Complex{1.0, 0.0};
        const quantum::LocalOpPlan probe(shape, {0});
        std::vector<quantum::LocalOpPlan> pair_plans;
        for (int a = 0; a < nregs; ++a) {
          pair_plans.emplace_back(
              shape, std::vector<int>{a, (a + nregs / 2) % nregs});
        }
        const int iters = ctx.smoke_select(24, 8);
        for (int it = 0; it < iters; ++it) {
          quantum::apply_local(pair_plans[static_cast<std::size_t>(it % nregs)],
                               u, psi);
          checksum += quantum::expectation_local(probe, e00, psi);
        }
      } else if (kernel == "gemm") {
        // Dense n x n product with n^2 = scale entries per factor.
        int n = 1;
        while (n * n < scale) n *= 2;
        const linalg::CMat a = quantum::haar_unitary(n, rng);
        const linalg::CMat b = quantum::haar_unitary(n, rng);
        const int iters = ctx.smoke_select(2, 1);
        for (int it = 0; it < iters; ++it) {
          const linalg::CMat c = it % 2 == 0 ? a * b : a.adjoint_times(b);
          checksum += c(0, 0).real() + c(n - 1, n - 1).imag();
        }
      } else {  // sandwich
        // U rho U^dagger on a dense D x D density with D^2 = scale entries.
        int n = 1;
        while (n * n < scale) n *= 2;
        const quantum::RegisterShape shape({n / 4, 4});
        linalg::CMat rho =
            linalg::CMat::projector(quantum::haar_state(n, rng));
        const linalg::CMat u = quantum::haar_unitary(4, rng);
        const quantum::LocalOpPlan plan(shape, {1});
        linalg::CMat e00(4, 4);
        e00(0, 0) = linalg::Complex{1.0, 0.0};
        const int iters = ctx.smoke_select(4, 2);
        for (int it = 0; it < iters; ++it) {
          quantum::sandwich_local(plan, u, rho);
          checksum += quantum::expectation_local(plan, e00, rho);
        }
      }
      sweep::JobResult result;
      result.metrics.set("checksum", checksum);
      result.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      return result;
    };
    Table ptable({"kernel", "size", "threads", "checksum", "wall (ms)"});
    for (std::size_t i = 0; i < points.size(); i += 2) {
      const auto results = ctx.unit(
          {{"parallel_kernels", points[i]},
           {"parallel_kernels", points[i + 1]}},
          [&](Rng& rng) {
            return std::vector<sweep::JobResult>{run_point(points[i], rng),
                                                 run_point(points[i + 1], rng)};
          });
      for (std::size_t k = 0; k < 2; ++k) {
        if (results[k].skipped) continue;  // owned by another process
        const auto& p = points[i + k];
        ptable.add_row({p.get_string("kernel"), Table::fmt(p.get_int("size")),
                        Table::fmt(p.get_int("threads")),
                        Table::fmt(results[k].metrics.get_double("checksum")),
                        Table::fmt(results[k].wall_ms, 2)});
      }
    }
    ptable.print(out);
  }

  {
    util::print_banner(
        out, "simd roofline: kernels x dispatch level, single-threaded",
        "The split-complex engine's core kernels at every dispatch level\n"
        "(linalg/simd.hpp), one kernel thread, level pinned per point via\n"
        "LevelScope. Checksums and the flop/byte counts are deterministic\n"
        "per level; wall_ms (JSON: --timings only) times the kernel loop,\n"
        "so GFLOP/s and GB/s follow from flops_per_iter, bytes_per_iter\n"
        "and iters. Levels the host cannot run are clamped to the best\n"
        "supported one.");
    // Each kernel's level triple is one unit, run serially like
    // parallel_kernels: each point pins thread count and dispatch level,
    // and all three levels draw from copies of the unit's stream, so the
    // cross-level agreement (within rounding) is visible in the JSON
    // itself.
    std::vector<sweep::ParamPoint> points;
    for (const char* kernel : {"apply_local", "gemm", "matvec"}) {
      for (const char* level : {"scalar", "avx2", "avx512"}) {
        points.push_back(
            sweep::ParamPoint().set("kernel", kernel).set("level", level));
      }
    }
    const auto run_level = [&ctx](const sweep::ParamPoint& p, Rng rng) {
      const auto& kernel = p.get_string("kernel");
      const linalg::simd::Level requested =
          linalg::simd::parse_level(p.get_string("level"));
      // Clamp, never skip: the point grid (and so the JSON shape) is
      // identical on every host; an unsupported level simply re-measures
      // the best supported one. Checksums agree across levels within
      // rounding, so clamped points still --compare clean against a
      // baseline from a wider host.
      const linalg::simd::Level exec =
          linalg::simd::clamp_to_supported(requested);
      const linalg::simd::LevelScope level_scope(exec);
      const sweep::KernelThreadScope thread_scope(1);
      double checksum = 0.0;
      long long flops = 0;  // per iteration
      long long bytes = 0;  // per iteration
      long long iters = 0;
      double wall_ms = 0.0;
      const auto clock_ms = [start = std::chrono::steady_clock::now()] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
      };
      if (kernel == "apply_local") {
        // The gather/block-apply/scatter core: 16-dim two-register unitary
        // over a D-amplitude state. 8 flops per complex MAC, b=16 MACs per
        // amplitude; each amplitude is read and written once per pass.
        const int d = ctx.smoke_select(1 << 16, 1 << 14);
        int nregs = 0;
        while ((1 << (2 * nregs)) < d) ++nregs;
        const quantum::RegisterShape shape(
            std::vector<int>(static_cast<std::size_t>(nregs), 4));
        const linalg::CMat u = quantum::haar_unitary(16, rng);
        linalg::CVec psi(d);
        psi[0] = linalg::Complex{1.0, 0.0};
        std::vector<quantum::LocalOpPlan> pair_plans;
        for (int a = 0; a < nregs; ++a) {
          pair_plans.emplace_back(
              shape, std::vector<int>{a, (a + nregs / 2) % nregs});
        }
        iters = ctx.smoke_select(12, 6);
        flops = 128LL * d;
        bytes = 32LL * d;
        const double t0 = clock_ms();
        for (long long it = 0; it < iters; ++it) {
          quantum::apply_local(
              pair_plans[static_cast<std::size_t>(it % nregs)], u, psi);
        }
        wall_ms = clock_ms() - t0;
        linalg::CMat e00(4, 4);
        e00(0, 0) = linalg::Complex{1.0, 0.0};
        const quantum::LocalOpPlan probe(shape, {0});
        checksum = quantum::expectation_local(probe, e00, psi);
      } else if (kernel == "gemm") {
        // Dense n x n product through the blocked split-complex path.
        const int n = ctx.smoke_select(256, 128);
        const linalg::CMat a = quantum::haar_unitary(n, rng);
        const linalg::CMat b = quantum::haar_unitary(n, rng);
        iters = 2;
        flops = 8LL * n * n * n;
        bytes = 48LL * n * n;
        const double t0 = clock_ms();
        for (long long it = 0; it < iters; ++it) {
          const linalg::CMat c = it % 2 == 0 ? a * b : a.adjoint_times(b);
          checksum += c(0, 0).real() + c(n - 1, n - 1).imag();
        }
        wall_ms = clock_ms() - t0;
      } else {  // matvec
        // DenseOperator::apply (the power-iteration workhorse): one packed
        // split read of the n x n matrix per pass.
        const int n = ctx.smoke_select(1024, 512);
        const linalg::CMat a = quantum::random_density(n, rng);
        const linalg::DenseOperator op(a);
        linalg::CVec x = quantum::haar_state(n, rng);
        iters = ctx.smoke_select(100, 40);
        flops = 8LL * n * n;
        bytes = 16LL * n * n;
        const double t0 = clock_ms();
        for (long long it = 0; it < iters; ++it) {
          linalg::CVec y = op.apply(x);
          y.normalize();
          x = std::move(y);
        }
        wall_ms = clock_ms() - t0;
        checksum = x.norm() + std::abs(x[0]);
      }
      sweep::JobResult result;
      result.metrics.set("checksum", checksum)
          .set("flops_per_iter", flops)
          .set("bytes_per_iter", bytes)
          .set("iters", iters);
      result.wall_ms = wall_ms;
      return result;
    };
    Table rtable({"kernel", "level", "ran at", "checksum", "GFLOP/s", "GB/s"});
    for (std::size_t i = 0; i < points.size(); i += 3) {
      std::vector<sweep::UnitRecord> records;
      for (std::size_t k = i; k < i + 3; ++k) {
        records.push_back({"simd_roofline", points[k]});
      }
      const auto results = ctx.unit(records, [&](Rng& rng) {
        std::vector<sweep::JobResult> unit_results;
        for (std::size_t k = i; k < i + 3; ++k) {
          unit_results.push_back(run_level(points[k], rng));
        }
        return unit_results;
      });
      for (std::size_t k = 0; k < 3; ++k) {
        if (results[k].skipped) continue;  // owned by another process
        const auto& m = results[k].metrics;
        const auto& level = points[i + k].get_string("level");
        // Rate in units of 1e9 per second over the timed kernel loop.
        const auto giga_per_s = [&](const char* per_iter) {
          const double wall_s = results[k].wall_ms / 1000.0;
          return wall_s > 0.0 ? static_cast<double>(m.get_int(per_iter) *
                                                    m.get_int("iters")) /
                                    wall_s / 1.0e9
                              : 0.0;
        };
        rtable.add_row(
            {points[i + k].get_string("kernel"), level,
             linalg::simd::level_name(linalg::simd::clamp_to_supported(
                 linalg::simd::parse_level(level))),
             Table::fmt(m.get_double("checksum")),
             Table::fmt(giga_per_s("flops_per_iter"), 2),
             Table::fmt(giga_per_s("bytes_per_iter"), 2)});
      }
    }
    rtable.print(out);
  }

  {
    util::print_banner(
        out, "eigensolver: power vs Lanczos at power-of-two proof dims",
        "Both spectral solvers (linalg/lanczos.hpp) on matrix-free\n"
        "acceptance operators at proof dims 2^10 .. 2^16, tol 1e-9.\n"
        "Matvec counts are exact integers (level- and thread-invariant);\n"
        "wall times ride in the JSON under --timings.");
    std::vector<sweep::ParamPoint> points;
    const auto add_pair = [&](int d, int r) {
      for (const char* solver : {"power", "lanczos"}) {
        points.push_back(sweep::ParamPoint()
                             .set("d", d)
                             .set("r", r)
                             .set("solver", solver));
      }
    };
    // (d, r) -> proof dim d^{2(r-1)}: 2^10, 2^12, 2^14, 2^16. Smoke stops
    // at 2^12; the two large instances are full-run only.
    add_pair(32, 2);
    add_pair(8, 3);
    if (!ctx.smoke()) {
      add_pair(128, 2);
      add_pair(16, 3);
    }
    // Few huge points, one threaded matvec engine inside each: run them
    // serially so the kernels fan out (same contract as the table3_lower
    // matrix_free_large series).
    const auto results = ctx.serial_sweep(
        "eigensolver", points, [](const sweep::ParamPoint& p, Rng&) {
          const int d = static_cast<int>(p.get_int("d"));
          const int r = static_cast<int>(p.get_int("r"));
          linalg::CVec a = linalg::CVec::basis(d, 0);
          linalg::CVec b(d);
          b[0] = linalg::Complex{0.2, 0.0};
          b[1] = linalg::Complex{std::sqrt(1.0 - 0.04), 0.0};
          const protocol::ExactEqPathAnalyzer exact(
              a, b, r, protocol::ExactEqPathAnalyzer::Mode::kMatrixFree);
          linalg::SpectralOptions opts;
          opts.method = p.get_string("solver") == "power"
                            ? linalg::SpectralOptions::Method::kPower
                            : linalg::SpectralOptions::Method::kLanczos;
          opts.max_iters = 20000;
          opts.tol = 1e-9;
          linalg::SpectralStats stats;
          const double value = exact.worst_case_accept(opts, &stats);
          return sweep::Metrics()
              .set("proof_dim", exact.proof_dim())
              .set("value", value)
              .set("matvecs", stats.matvecs)
              .set("converged", stats.converged);
        });
    Table etable({"d", "r", "proof dim", "solver", "top eigenvalue",
                  "matvecs", "converged"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      etable.add_row({Table::fmt(points[i].get_int("d")),
                      Table::fmt(points[i].get_int("r")),
                      Table::fmt(m.get_int("proof_dim")),
                      points[i].get_string("solver"),
                      Table::fmt(m.get_double("value")),
                      Table::fmt(m.get_int("matvecs")),
                      m.get_bool("converged") ? "yes" : "NO"});
    }
    etable.print(out);
  }
}

}  // namespace

void register_micro() {
  sweep::register_experiment(
      {"micro",
       "Microbenchmarks of the simulation primitives (wall times via "
       "--timings)",
       run});
}

}  // namespace dqma::bench
