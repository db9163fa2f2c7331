// Workload `exact`: worst-case (entangled-prover) and best product-prover
// acceptance of the symmetrize-and-forward EQ protocol on paths, computed
// by the matrix-free exact engine (protocol::ExactEqPathAnalyzer).
//
// Two no-instance classes. `deep` (d = 2, r = 7, D = 4096) runs 64 coin
// patterns x 7 local effects per matvec over 4-dim blocks, so its time sits
// in the dqma pattern loop; `wide` (d = 6, r = 4, D = 46656) runs 8
// patterns over 36-dim blocks, so its time sits in large-D apply_local and
// Lanczos reorthogonalisation. Both keep the fingerprints in span{e0, e1}
// with h_y = 0.2 e0 + sqrt(0.96) e1, which makes every acceptance value a
// function of (overlap, r) alone: the dimension-independence check compares
// both against the dense engine at d = 2.
//
// One operation is one round: the deep and the wide instance solved back to
// back (worst case plus best product each). The seed drives the random
// restarts of the product-prover optimiser.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "dqma/exact_runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lanczos.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/unitary.hpp"
#include "sweep/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using Analyzer = dqma::protocol::ExactEqPathAnalyzer;

struct ExactClass {
  const char* name;
  int d;
  int r;
};

constexpr ExactClass kClasses[] = {{"deep", 2, 7}, {"wide", 6, 4}};
constexpr int kKernelThreads = 2;
constexpr int kSetupBatches = 5;  // set-up samples taken before each round
constexpr int kSetupBatch = 20;   // pair builds per set-up sample
constexpr int kMinRounds = 3;
constexpr int kWarmUpMatvecs = 4;

CVec fingerprint_y(int d, bool yes) {
  if (yes) {
    return CVec::basis(d, 0);
  }
  CVec v(d);
  v[0] = Complex{0.2, 0.0};
  v[1] = Complex{std::sqrt(0.96), 0.0};
  return v;
}

Analyzer make_analyzer(const ExactClass& c, bool yes,
                       Analyzer::Mode mode = Analyzer::Mode::kMatrixFree) {
  return Analyzer(CVec::basis(c.d, 0), fingerprint_y(c.d, yes), c.r, mode);
}

/// Builds the no-instance analyzers of both classes kSetupBatches x
/// kSetupBatch times, appending the wall time of each build of the pair to
/// `times`; `out` keeps the last pair.
void build_analyzers(std::vector<Analyzer>& out, std::vector<double>& times) {
  for (int i = 0; i < kSetupBatches * kSetupBatch; ++i) {
    out.clear();
    const auto start = Clock::now();
    for (const ExactClass& c : kClasses) {
      out.push_back(make_analyzer(c, false));
    }
    times.push_back(seconds_since(start));
  }
}

/// A few matvecs per analyzer: starts the kernel pool and pages in the
/// buffers, so the first timed solve does not pay for either.
void warm_up(const std::vector<Analyzer>& analyzers) {
  for (const Analyzer& a : analyzers) {
    CVec v = CVec::basis(static_cast<int>(a.proof_dim()), 0);
    for (int i = 0; i < kWarmUpMatvecs; ++i) {
      v = a.apply_acceptance(v);
    }
  }
}

struct Solve {
  double worst = 0.0;
  double product = 0.0;
  double worst_s = 0.0;
  double product_s = 0.0;
};

Solve solve(const Analyzer& a, std::uint64_t seed) {
  Solve s;
  const auto start = Clock::now();
  s.worst = a.worst_case_accept();
  const auto mid = Clock::now();
  dqma::util::Rng rng(seed);
  s.product = a.best_product_accept(rng);
  s.worst_s = std::chrono::duration<double>(mid - start).count();
  s.product_s = seconds_since(mid);
  return s;
}

double norm(const CVec& v) {
  double acc = 0.0;
  for (int i = 0; i < v.dim(); ++i) {
    acc += std::norm(v[i]);
  }
  return std::sqrt(acc);
}

/// Top eigenpair of the acceptance operator through the spectral
/// dispatcher, with every matvec timed. The residual ||A v - theta v|| is
/// recomputed here from apply_acceptance, apart from the solver.
struct Eigenpair {
  double theta = 0.0;
  double residual = 0.0;
  dqma::linalg::SpectralStats stats;
  double wall_s = 0.0;
  double matvec_s = 0.0;
};

Eigenpair traced_eigenpair(const Analyzer& a) {
  Eigenpair e;
  long long calls = 0;
  const dqma::linalg::CallbackOperator op(
      [&](const CVec& x) {
        const auto start = Clock::now();
        CVec y = a.apply_acceptance(x);
        e.matvec_s += seconds_since(start);
        ++calls;
        return y;
      },
      static_cast<int>(a.proof_dim()));
  const dqma::linalg::SpectralOptions options;
  CVec v;
  const auto start = Clock::now();
  e.theta = dqma::linalg::top_eigenvalue_psd(op, options, &v, &e.stats);
  e.wall_s = seconds_since(start);
  CVec residual = a.apply_acceptance(v);
  residual -= v * Complex{e.theta, 0.0};
  e.residual = norm(residual);
  return e;
}

/// The solver's stopping rule is ||A x - theta x|| <= tol * max(1, theta);
/// the recomputed residual may differ from the solver's estimate by
/// rounding, hence the factor of ten.
bool residual_ok(const Eigenpair& e) {
  const dqma::linalg::SpectralOptions options;
  return e.residual <= 10.0 * options.tol * std::max(1.0, e.theta);
}

/// Checks shared by the timed and the traced run.
void check_solves(const ExactClass& c, const std::vector<Solve>& solves,
                  double theta, Report& report) {
  const std::string name = c.name;
  for (const Solve& s : solves) {
    report.check(s.product >= 0.0 && s.product <= s.worst + 1e-9,
                 name + ": product value exceeds the entangled value");
    report.check(s.worst <= 1.0, name + ": entangled value above 1");
    report.check(std::abs(s.worst - theta) <= 1e-9,
                 name + ": worst_case_accept differs from the top eigenvalue");
  }
  const Analyzer yes = make_analyzer(c, true);
  const double yes_value = yes.worst_case_accept();
  report.check(std::abs(yes_value - 1.0) <= 1e-9,
               name + ": yes-instance acceptance is not 1");
  dqma::util::Rng rng(1);
  report.check(std::abs(yes.best_product_accept(rng, 1) - 1.0) <= 1e-9,
               name + ": honest product proof is not accepted with certainty");
}

/// The materialised-operator value at d = 2 and the same r.
double dense_reference(const ExactClass& c) {
  const ExactClass small{c.name, 2, c.r};
  return make_analyzer(small, false, Analyzer::Mode::kDense).worst_case_accept();
}

/// apply_local on one register pair of a class's register shape with the
/// swap-test effect (I + SWAP)/2: microseconds per call, median of batches.
double apply_local_us(const ExactClass& c, int calls_per_batch) {
  const int regs = 2 * (c.r - 1);
  const dqma::quantum::RegisterShape shape(std::vector<int>(regs, c.d));
  const dqma::quantum::LocalOpPlan plan(shape, {1, 2});
  CMat effect = dqma::quantum::swap_unitary(c.d);
  effect += CMat::identity(c.d * c.d);
  effect *= Complex{0.5, 0.0};
  dqma::util::Rng rng(7);
  CVec psi(static_cast<int>(plan.total_dim()));
  for (int i = 0; i < psi.dim(); ++i) {
    psi[i] = Complex{rng.next_double() - 0.5, rng.next_double() - 0.5};
  }
  dqma::quantum::apply_local(plan, effect, psi);  // warm-up
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < calls_per_batch; ++i) {
      dqma::quantum::apply_local(plan, effect, psi);
    }
    batches.push_back(seconds_since(start) / calls_per_batch * 1e6);
  }
  return median(batches);
}

}  // namespace

void run_exact(const Options& options, Report& report) {
  pin_current_thread(program_cpus());
  const dqma::sweep::KernelThreadScope threads(kKernelThreads);

  std::vector<Analyzer> analyzers;
  std::vector<double> setup;
  build_analyzers(analyzers, setup);
  warm_up(analyzers);

  std::vector<double> round_s;
  std::vector<Solve> solves[2];
  // Peak RSS is read after the first round: later rounds only reuse the
  // same buffers, and how many of them fit in --seconds would otherwise
  // leak heap fragmentation into the figure.
  double rss = 0.0;
  const auto start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_since(start) < options.seconds; ++round) {
    if (round > 0) {
      // Set-up is sampled again before every round, so its median follows
      // the host over the whole run rather than over its first second.
      std::vector<Analyzer> rebuilt;
      build_analyzers(rebuilt, setup);
    }
    double total = 0.0;
    for (int k = 0; k < 2; ++k) {
      const Solve s = solve(analyzers[k], dqma::util::derive_seed(options.seed, 2 * round + k));
      solves[k].push_back(s);
      total += s.worst_s + s.product_s;
    }
    round_s.push_back(total);
    if (round == 0) {
      rss = peak_rss_mb();
    }
  }
  report.attempted = 2 * static_cast<long long>(round_s.size());

  report.e2e("setup_s", batch_median(setup, kSetupBatch), "s");
  report.e2e("peak_rss_mb", rss, "MB");
  report.e2e("ops_per_s", static_cast<double>(round_s.size()) / sum(round_s),
             "1/s");

  for (int k = 0; k < 2; ++k) {
    std::vector<double> worst;
    std::vector<double> product;
    for (const Solve& s : solves[k]) {
      worst.push_back(s.worst_s);
      product.push_back(s.product_s);
    }
    std::printf("exact %s: %zu solves, median worst-case %.3f s, product %.3f s,"
                " value %.12f (product %.12f)\n",
                kClasses[k].name, solves[k].size(), median(worst),
                median(product), solves[k].front().worst,
                solves[k].front().product);
  }

  // Output checks, apart from the timed path.
  for (int k = 0; k < 2; ++k) {
    const Eigenpair e = traced_eigenpair(analyzers[k]);
    report.check(residual_ok(e), std::string(kClasses[k].name) +
                                     ": Ritz residual above the solver tolerance");
    check_solves(kClasses[k], solves[k], e.theta, report);
    const double dense = dense_reference(kClasses[k]);
    std::printf("exact %s: dense d=2 reference %.12f, residual %.3g\n",
                kClasses[k].name, dense, e.residual);
    report.check(std::abs(dense - solves[k].front().worst) <= 1e-9,
                 std::string(kClasses[k].name) +
                     ": value differs from the dense d=2 engine");
  }
}

void trace_exact(const Options& options, Report& report) {
  pin_current_thread(program_cpus());
  const dqma::sweep::KernelThreadScope threads(kKernelThreads);

  std::vector<Analyzer> analyzers;
  std::vector<double> builds;
  build_analyzers(analyzers, builds);
  report.layer("dqma.build_ms", 1000.0 * batch_median(builds, kSetupBatch), "ms");
  warm_up(analyzers);

  // The untraced solve through the public entry point, then the same solve
  // with every matvec timed: their ratio is the tracing overhead.
  double untraced = 0.0;
  double traced = 0.0;
  for (int k = 0; k < 2; ++k) {
    untraced += [&] {
      const Solve s = solve(analyzers[k], dqma::util::derive_seed(options.seed, k));
      return s.worst_s + s.product_s;
    }();
  }
  for (int k = 0; k < 2; ++k) {
    const ExactClass& c = kClasses[k];
    const std::string suffix = std::string(".") + c.name;
    const Eigenpair e = traced_eigenpair(analyzers[k]);
    const auto start = Clock::now();
    dqma::util::Rng rng(dqma::util::derive_seed(options.seed, k));
    const double product = analyzers[k].best_product_accept(rng);
    const double product_s = seconds_since(start);
    traced += e.wall_s + product_s;

    const double calls = static_cast<double>(e.stats.matvecs);
    report.layer("linalg.matvecs" + suffix, calls, "count");
    report.layer("linalg.lanczos_self_s" + suffix, e.wall_s - e.matvec_s, "s");
    report.layer("dqma.matvec_ms" + suffix, 1000.0 * e.matvec_s / calls, "ms");
    report.layer("dqma.product_opt_s" + suffix, product_s, "s");
    report.layer("dqma.solve_s" + suffix, e.wall_s + product_s, "s");

    report.check(residual_ok(e), c.name + std::string(": Ritz residual above "
                                                      "the solver tolerance"));
    Solve s;
    s.worst = std::min(1.0, e.theta);
    s.product = product;
    check_solves(c, {s}, s.worst, report);
    report.attempted += 1;
  }
  report.layer("trace.overhead_share.exact", traced / untraced - 1.0, "ratio");

  // apply_local on the two register shapes; flops from the dense model
  // 8 * D * b (one complex multiply-add per block entry and free offset).
  const struct {
    const char* label;
    const ExactClass& c;
    int calls;
  } shapes[] = {{"b4", kClasses[0], 400}, {"b36", kClasses[1], 20}};
  for (const auto& shape : shapes) {
    const double us = apply_local_us(shape.c, shape.calls);
    const double dim = std::pow(shape.c.d, 2 * (shape.c.r - 1));
    const double block = shape.c.d * shape.c.d;
    report.layer(std::string("quantum.apply_local_us.") + shape.label, us, "us");
    report.layer(std::string("quantum.apply_local_gflops.") + shape.label,
                 8.0 * dim * block / (us * 1e3), "GFLOP/s");
  }
}

}  // namespace perfbench
