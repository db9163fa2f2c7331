// Table 3 — the paper's lower bounds, verified constructively where the
// proofs are constructive and reported as bound values otherwise.
//
//   row 1 (Thm 51, dQMA_sep,sep Omega(r log n)): the counting argument —
//     packing too many fingerprints into too few qubits forces a
//     high-overlap pair, and the substitution attack then fools the
//     product-proof verifier;
//   rows 2-4 (Thm 52 / Cor 55 / Thm 56, entangled proofs): the proof-gap
//     attack (Lemma 53) and the exact engine's entangled-vs-product gap;
//   rows 5-7 (Thm 63: DISJ / IP / PAND): bound values via the one-sided
//     smooth discrepancy reductions.
#include <cmath>
#include <utility>
#include <vector>

#include "dma/dma_protocols.hpp"
#include "dqma/eq_path.hpp"
#include "dqma/exact_runner.hpp"
#include "dqma/qma_star.hpp"
#include "experiments.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/vector.hpp"
#include "lowerbound/accounting.hpp"
#include "lowerbound/counting.hpp"
#include "lowerbound/fooling.hpp"
#include "sweep/registry.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dqma::bench {
namespace {

using linalg::CVec;
using protocol::ExactEqPathAnalyzer;
using util::Bitstring;
using util::Rng;
using util::Table;
namespace lb = dqma::lowerbound;

void run(sweep::ExperimentContext& ctx) {
  std::ostream& out = ctx.out();

  {
    util::print_banner(
        out, "Row 1 (Thm 51): the counting argument behind Omega(r log n)",
        "Claim 49: a family of `count` states on q qubits has a pair with\n"
        "overlap > delta once q is too small. Below: max pairwise overlap "
        "of\n"
        "Haar families vs the packing bound. delta = 0.3.");
    sweep::ParamGrid grid;
    grid.axis("qubits", ctx.smoke_select(std::vector<int>{1, 2, 4, 6, 9},
                                         {1, 2, 4}));
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "counting_argument", points,
        [](const sweep::ParamPoint& p, Rng& rng) {
          const int qubits = static_cast<int>(p.get_int("qubits"));
          const int count = 64;
          const double overlap =
              lb::random_family_max_overlap(qubits, count, rng);
          return sweep::Metrics()
              .set("states", count)
              .set("max_overlap", overlap)
              .set("fooling_pair", overlap > 0.3);
        });
    Table table({"qubits", "states", "max overlap", "fooling pair (>0.3)?"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;  // owned by another --shard
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("qubits")),
                     Table::fmt(m.get_int("states")),
                     Table::fmt(m.get_double("max_overlap")),
                     m.get_bool("fooling_pair") ? "YES" : "no"});
    }
    table.print(out);
    out << "\nLemma 48 qubit bound log2(n/delta^2): ";
    for (int n : {16, 256, 4096}) {
      const double bound = lb::lemma48_qubit_bound(n, 0.3);
      ctx.record("lemma48_qubit_bound",
                 sweep::ParamPoint().set("n", n),
                 sweep::Metrics().set("bound", bound));
      out << "n=" << n << ": " << bound << "  ";
    }
    out << "\nPigeonhole over r windows gives the Omega(r log n) total "
           "(Thm 51).\n";
  }

  {
    util::print_banner(
        out, "Row 1': fooling sets of size 2^n exist for EQ and GT",
        "Sampled verification of the 1-fooling property (Sec. 2.2.1).");
    sweep::ParamGrid grid;
    grid.axis("function", std::vector<std::string>{"EQ  {(z, z)}",
                                                   "GT  {(z, z-1)}"});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "fooling_sets", points, [](const sweep::ParamPoint& p, Rng& rng) {
          const bool is_eq = p.get_string("function") == "EQ  {(z, z)}";
          bool fooling = false;
          if (is_eq) {
            const auto set = lb::eq_fooling_set(24, 64, rng);
            const auto eq = [](const Bitstring& a, const Bitstring& b) {
              return a == b;
            };
            fooling = lb::is_one_fooling_set(eq, set, rng);
          } else {
            const auto set = lb::gt_fooling_set(24, 64, rng);
            const auto gt = [](const Bitstring& a, const Bitstring& b) {
              return a > b;
            };
            fooling = lb::is_one_fooling_set(gt, set, rng);
          }
          return sweep::Metrics()
              .set("sampled_members", 64)
              .set("is_one_fooling_set", fooling);
        });
    Table table({"function", "sampled members", "is 1-fooling set"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({points[i].get_string("function"),
                     Table::fmt(m.get_int("sampled_members")),
                     m.get_bool("is_one_fooling_set") ? "yes" : "NO"});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out,
        "Rows 2-3 (Cor 55): Omega(r) — the proof-gap attack (Lemma 53)",
        "Any protocol leaving two consecutive nodes proofless is fooled\n"
        "with certainty by the product splice, however large the other\n"
        "proofs are (classical demonstration; the quantum argument uses "
        "the\n"
        "Schmidt decomposition identically). n = 16.");
    sweep::ParamGrid grid;
    grid.axis("r", std::vector<int>{4, 6, 10});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "proof_gap_attack", points, [](const sweep::ParamPoint& p, Rng& rng) {
          const int r = static_cast<int>(p.get_int("r"));
          const dma::ZeroWindowDmaEq protocol(16, r, r / 2);
          const Bitstring x = Bitstring::random(16, rng);
          Bitstring y = Bitstring::random(16, rng);
          if (x == y) y.flip(0);
          return sweep::Metrics()
              .set("gap_at", r / 2)
              .set("honest_accept",
                   protocol.accepts(x, x, protocol.honest_proof(x)))
              .set("splice_attack_accept",
                   protocol.accepts(x, y, protocol.splice_attack(x, y)));
        });
    Table table({"r", "gap at", "honest accept", "splice attack accept"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("r")),
                     Table::fmt(m.get_int("gap_at")),
                     m.get_bool("honest_accept") ? "1" : "0",
                     m.get_bool("splice_attack_accept") ? "1" : "0"});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out,
        "Row 4 (Thm 56) context: entangled vs product provers, exactly",
        "Exact worst-case acceptance of Algorithm 3 over ALL proofs (top\n"
        "eigenvalue of the acceptance operator) vs the best PRODUCT proof\n"
        "(dQMA_sep,sep adversary), with endpoint overlap delta = 0.2.");
    sweep::ParamGrid grid;
    grid.axis("r", ctx.smoke_select(std::vector<int>{2, 3, 4, 5}, {2, 3}));
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "entangled_vs_product", points,
        [](const sweep::ParamPoint& p, Rng& rng) {
          const int r = static_cast<int>(p.get_int("r"));
          CVec a = CVec::basis(2, 0);
          CVec b(2);
          b[0] = linalg::Complex{0.2, 0.0};
          b[1] = linalg::Complex{std::sqrt(1.0 - 0.04), 0.0};
          const ExactEqPathAnalyzer exact(a, b, r);
          const double worst = exact.worst_case_accept();
          const double product = exact.best_product_accept(rng, 6, 50);
          return sweep::Metrics()
              .set("worst_entangled_accept", worst)
              .set("best_product_accept", product)
              .set("entangled_gain", worst - product);
        });
    Table table({"r", "worst entangled accept", "best product accept",
                 "entangled gain"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("r")),
                     Table::fmt(m.get_double("worst_entangled_accept")),
                     Table::fmt(m.get_double("best_product_accept")),
                     Table::fmt(m.get_double("entangled_gain"))});
    }
    table.print(out);
    out << "\nBound values: Thm 52 (logn)^{1/2-e}/r^{1+e'} and Thm 56 "
           "(logn)^{1/4-e} at e = e' = 0.05:\n";
    Table bounds({"n", "Thm 52 bound (r=4)", "Thm 56 bound"});
    for (int n : {256, 65536, 1 << 24}) {
      const double thm52 = lb::thm52_bound(4, n, 0.05, 0.05);
      const double thm56 = lb::thm56_bound(n, 0.05);
      ctx.record("entangled_bound_values",
                 sweep::ParamPoint().set("n", n).set("r", 4),
                 sweep::Metrics()
                     .set("thm52_bound", thm52)
                     .set("thm56_bound", thm56));
      bounds.add_row({Table::fmt(n), Table::fmt(thm52), Table::fmt(thm56)});
    }
    bounds.print(out);
  }

  {
    util::print_banner(
        out,
        "Row 4+ (matrix-free): entangled vs product beyond the dense cap",
        "The same entangled-vs-product gap on proof spaces too large for a\n"
        "dense acceptance operator: the matrix-free engine streams the\n"
        "local effects (worst case = deterministic Lanczos on the\n"
        "operator's action, matvecs recorded; product case = factorized\n"
        "alternating optimization). delta = 0.2.");
    std::vector<sweep::ParamPoint> all_points;
    for (const auto& [d, r] :
         {std::pair{4, 4}, std::pair{6, 4}, std::pair{4, 5}}) {
      all_points.push_back(sweep::ParamPoint().set("d", d).set("r", r));
    }
    const auto points = ctx.smoke_select(
        all_points, {sweep::ParamPoint().set("d", 6).set("r", 4)});
    // Few huge points: running them as sweep jobs would serialize the
    // kernels inside each job (the nesting contract) and leave N - 1
    // threads idle on the largest instance. serial_sweep runs them on
    // this thread instead, so the Lanczos matvecs and stride
    // kernels inside fan out across the kernel pool — with sweep()'s
    // exact seeding and recording, so the values match the pooled
    // execution byte for byte.
    const auto results = ctx.serial_sweep(
        "matrix_free_large", points, [](const sweep::ParamPoint& p, Rng& rng) {
          const int d = static_cast<int>(p.get_int("d"));
          const int r = static_cast<int>(p.get_int("r"));
          CVec a = CVec::basis(d, 0);
          CVec b(d);
          b[0] = linalg::Complex{0.2, 0.0};
          b[1] = linalg::Complex{std::sqrt(1.0 - 0.04), 0.0};
          const ExactEqPathAnalyzer exact(a, b, r,
                                          ExactEqPathAnalyzer::Mode::kMatrixFree);
          linalg::SpectralStats stats;
          const double worst =
              exact.worst_case_accept(linalg::SpectralOptions{}, &stats);
          const double product = exact.best_product_accept(rng, 4, 40);
          return sweep::Metrics()
              .set("proof_dim", exact.proof_dim())
              .set("worst_entangled_accept", worst)
              .set("best_product_accept", product)
              .set("entangled_gain", worst - product)
              .set("solver_matvecs", stats.matvecs)
              .set("solver_converged", stats.converged);
        });
    Table table({"d", "r", "proof dim", "worst entangled (Lanczos)",
                 "matvecs", "best product", "entangled gain"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("d")),
                     Table::fmt(points[i].get_int("r")),
                     Table::fmt(m.get_int("proof_dim")),
                     Table::fmt(m.get_double("worst_entangled_accept")),
                     Table::fmt(m.get_int("solver_matvecs")),
                     Table::fmt(m.get_double("best_product_accept")),
                     Table::fmt(m.get_double("entangled_gain"))});
    }
    table.print(out);
    out << "\nProof dims above 16384 were unreachable before the matrix-free "
           "engine\n(the dense cap materialized O as a D x D matrix).\n";
  }

  {
    util::print_banner(
        out, "Rows 5-7 (Thm 63): QMA-communication-hard functions",
        "Total proof+communication lower bounds via one-sided smooth\n"
        "discrepancy [Kla11] (values of the bounds; the reduction dQMA ->\n"
        "QMA* is Algorithm 11, cost-accounted in Sec. 8.2).");
    sweep::ParamGrid grid;
    grid.axis("n", std::vector<int>{64, 512, 4096, 32768});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "thm63_bounds", points, [](const sweep::ParamPoint& p, Rng&) {
          const int n = static_cast<int>(p.get_int("n"));
          return sweep::Metrics()
              .set("disj_bound", lb::thm63_disjointness_bound(n))
              .set("ip_bound", lb::thm63_inner_product_bound(n))
              .set("pand_bound", lb::thm63_pattern_and_bound(n));
        },
        // Closed-form bound values: replicate (see SweepPolicy).
        sweep::SweepPolicy::replicate());
    Table table({"n", "DISJ Omega(n^{1/3})", "IP Omega(n^{1/2})",
                 "PAND Omega(n^{1/3})"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("n")),
                     Table::fmt(m.get_double("disj_bound")),
                     Table::fmt(m.get_double("ip_bound")),
                     Table::fmt(m.get_double("pand_bound"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "Algorithm 11 executable: dQMA -> QMA* at every cut",
        "The i-th reduction preserves the worst-case acceptance verbatim\n"
        "(Alice simulates v_0..v_i, Bob the rest); the QMA* cost\n"
        "gamma1 + gamma2 + mu feeds Klauck's bounds. Exact engine, r = 4,\n"
        "orthogonal endpoints; 'sep' restricts Merlin to proofs separable\n"
        "across the cut.");
    sweep::ParamGrid grid;
    grid.axis("cut", ctx.smoke_select(std::vector<int>{0, 1, 2, 3}, {0, 1}));
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "algorithm11_cuts", points, [](const sweep::ParamPoint& p, Rng& rng) {
          const CVec a0 = CVec::basis(2, 0);
          const CVec b0 = CVec::basis(2, 1);
          const ExactEqPathAnalyzer analyzer(a0, b0, 4,
                                             ExactEqPathAnalyzer::Mode::kDense);
          const protocol::QmaStarInstance star(
              analyzer, static_cast<int>(p.get_int("cut")), 5);
          return sweep::Metrics()
              .set("total_cost_qubits", star.total_cost_qubits())
              .set("entangled_worst", star.max_accept())
              .set("cut_separable_worst",
                   star.max_cut_separable_accept(rng));
        });
    Table table({"cut i", "gamma1+gamma2+mu (qubits)", "entangled worst",
                 "cut-separable worst"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("cut")),
                     Table::fmt(m.get_int("total_cost_qubits")),
                     Table::fmt(m.get_double("entangled_worst")),
                     Table::fmt(m.get_double("cut_separable_worst"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "Upper-vs-lower sanity: EQ totals straddle the bounds",
        "Measured total proof of the Theorem 19 protocol vs the Thm 51\n"
        "Omega(r log n) bound (same order in n; the r^3 gap in r is the\n"
        "open problem the paper lists in Sec. 1.5).");
    sweep::ParamGrid grid;
    grid.axis("n", std::vector<int>{64, 1024});
    grid.axis("r", std::vector<int>{4, 8});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "upper_vs_lower", points, [](const sweep::ParamPoint& p, Rng&) {
          const int n = static_cast<int>(p.get_int("n"));
          const int r = static_cast<int>(p.get_int("r"));
          const auto c = protocol::EqPathProtocol::costs_for(
              n, r, 0.3, protocol::EqPathProtocol::paper_reps(r));
          return sweep::Metrics()
              .set("upper_total_proof", c.total_proof_qubits)
              .set("lower_bound", lb::thm51_total_proof_bound(r, n));
        },
        sweep::SweepPolicy::replicate());
    Table table({"n", "r", "upper (Thm 19 total)", "lower (Thm 51 r log n)"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("n")),
                     Table::fmt(points[i].get_int("r")),
                     Table::fmt(m.get_int("upper_total_proof")),
                     Table::fmt(m.get_double("lower_bound"))});
    }
    table.print(out);
  }
}

}  // namespace

void register_table3_lower() {
  sweep::register_experiment(
      {"table3_lower",
       "Table 3 (Sec. 8: lower bounds for dQMA protocols)", run});
}

}  // namespace dqma::bench
