// Table 2, row 6 — Theorem 30 / Theorem 32: the Hamming-distance predicate
// (and generally forall_t f) on general graphs from a one-way protocol.
//
// Shape to check: completeness 1 (exactly, with our one-sided block
// protocol), attacked soundness below 1/3 with enough repetitions, cost
// growth ~ t^2 (t trees x degree factor) and ~ log n, and the d-dependence
// of our block-isolation substitution (d^2 log d, vs the paper's d via
// [LZ13] — documented in EXPERIMENTS.md). The Monte-Carlo soundness
// section is chain-DP heavy and runs as parallel sweep jobs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "comm/fq_rank.hpp"
#include "comm/hamming_protocol.hpp"
#include "comm/l1_graph.hpp"
#include "comm/ltf_protocol.hpp"
#include "dqma/hamming.hpp"
#include "experiments.hpp"
#include "network/graph.hpp"
#include "sweep/registry.hpp"
#include "util/bitstring.hpp"
#include "util/gf2.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dqma::bench {
namespace {

using comm::HammingOneWayProtocol;
using protocol::HammingGraphProtocol;
using util::Bitstring;
using util::Rng;
using util::Table;

void run(sweep::ExperimentContext& ctx) {
  std::ostream& out = ctx.out();

  {
    util::print_banner(
        out, "(a) one-way substrate cost vs (n, d)",
        "Message qubits of the block-isolation protocol. Paper ([LZ13])\n"
        "scales as d log n; ours as d^2 log d log n (substitution, see\n"
        "DESIGN.md): the n-scaling shape is preserved, the d-exponent is 2.");
    sweep::ParamGrid grid;
    grid.axis("n", ctx.smoke_select(std::vector<int>{32, 128, 512},
                                    {32, 128}));
    grid.axis("d", ctx.smoke_select(std::vector<int>{1, 2, 4}, {1, 2}));
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "one_way_cost", points, [](const sweep::ParamPoint& p, Rng&) {
          const int n = static_cast<int>(p.get_int("n"));
          const int d = static_cast<int>(p.get_int("d"));
          const HammingOneWayProtocol protocol(
              n, d, 0.3, HammingOneWayProtocol::recommended_copies(d, 0.3));
          return sweep::Metrics().set("message_qubits",
                                      protocol.message_qubits());
        },
        // Closed-form cost curves: replicate (see SweepPolicy).
        sweep::SweepPolicy::replicate());
    Table table({"n", "d", "message qubits"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      table.add_row(
          {Table::fmt(points[i].get_int("n")),
           Table::fmt(points[i].get_int("d")),
           Table::fmt(results[i].metrics.get_int("message_qubits"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(b) completeness on stars (exactly 1 with block isolation)",
        "t terminals within pairwise distance d; n = 16, d = 1.");
    sweep::ParamGrid grid;
    grid.axis("t", ctx.smoke_select(std::vector<int>{2, 3, 4}, {2, 3}));
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "completeness_stars", points,
        [](const sweep::ParamPoint& p, Rng& rng) {
          const int t = static_cast<int>(p.get_int("t"));
          const network::Graph g = network::Graph::star(t);
          std::vector<int> terminals;
          for (int i = 1; i <= t; ++i) terminals.push_back(i);
          const HammingGraphProtocol protocol(g, terminals, 16, 1, 0.35, 10);
          const Bitstring base = Bitstring::random(16, rng);
          // All inputs EQUAL to keep every pairwise distance 0 <= d.
          const std::vector<Bitstring> inputs(static_cast<std::size_t>(t),
                                              base);
          return sweep::Metrics()
              .set("predicate", protocol.predicate(inputs))
              .set("completeness", protocol.completeness(inputs));
        });
    Table table({"t", "predicate", "completeness"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;  // owned by another --shard
      table.add_row(
          {Table::fmt(points[i].get_int("t")),
           results[i].metrics.get_bool("predicate") ? "1" : "0",
           Table::fmt(results[i].metrics.get_double("completeness"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(c) soundness under the interpolation attack (Monte-Carlo)",
        "One violated pair on a path of length 2; n = 16, d = 1, 40 reps,\n"
        "150 permutation samples (95% CI reported).");
    // The permutation samples are the chain-DP repetitions here: they are
    // chunked into parallel jobs (same violated input pair per distance,
    // independent sample streams per chunk) and recombined below.
    const int chunks = ctx.smoke_select(5, 1);
    const int chunk_samples = 30;
    sweep::ParamGrid grid;
    grid.axis("violation_distance", std::vector<int>{4, 7});
    std::vector<int> chunk_ids;
    for (int c = 0; c < chunks; ++c) chunk_ids.push_back(c);
    grid.axis("chunk", chunk_ids);
    const auto points = grid.enumerate();
    const std::uint64_t input_seed = util::derive_seed(
        ctx.base_seed(), sweep::fnv1a64("mc_soundness/inputs"));
    const auto results = ctx.sweep(
        "mc_soundness", points,
        [chunk_samples, input_seed](const sweep::ParamPoint& p, Rng& rng) {
          const network::Graph g = network::Graph::path(2);
          const HammingGraphProtocol protocol(g, {0, 2}, 16, 1, 0.35, 40);
          const int dist = static_cast<int>(p.get_int("violation_distance"));
          Rng input_rng(util::derive_seed(input_seed,
                                          static_cast<std::uint64_t>(dist)));
          const Bitstring x = Bitstring::random(16, input_rng);
          const std::vector<Bitstring> inputs{
              x, Bitstring::random_at_distance(x, dist, input_rng)};
          const auto est =
              protocol.best_attack_accept(inputs, rng, chunk_samples);
          return sweep::Metrics()
              .set("chunk_mean", est.mean)
              .set("chunk_half_width_95", est.half_width_95)
              .set("samples", chunk_samples);
        },
        // All chunks of one violated distance form one unit; the process
        // owning it combines them into a mean and a 95% CI.
        sweep::SweepPolicy::group_by(
            "violation_distance", "mc_soundness_combined",
            [chunks, chunk_samples](
                const std::vector<sweep::ParamPoint>& group,
                const std::vector<sweep::JobResult>& group_results) {
              double mean = 0.0;
              for (const auto& result : group_results) {
                mean += result.metrics.get_double("chunk_mean") / chunks;
              }
              double half_width = 0.0;
              if (chunks > 1) {
                // 95% CI from the spread of the (equal-sized, independent)
                // chunk means. With only `chunks` observations the
                // Student-t quantile is required — z = 1.96 would
                // under-cover at 4 dof.
                static constexpr double kT975[] = {0.0,   12.706, 4.303, 3.182,
                                                   2.776, 2.571,  2.447, 2.365,
                                                   2.306, 2.262};
                const double t = chunks - 1 < 10 ? kT975[chunks - 1] : 1.96;
                double var = 0.0;
                for (const auto& result : group_results) {
                  const double d =
                      result.metrics.get_double("chunk_mean") - mean;
                  var += d * d / (chunks - 1);
                }
                half_width = t * std::sqrt(var / chunks);
              } else {
                half_width = group_results.front().metrics.get_double(
                    "chunk_half_width_95");
              }
              return sweep::DerivedPoint{
                  sweep::ParamPoint().set(
                      "violation_distance",
                      group.front().get_int("violation_distance")),
                  sweep::Metrics()
                      .set("attack_accept_mean", mean)
                      .set("ci_half_width", half_width)
                      .set("samples", chunks * chunk_samples)
                      .set("sound", mean - half_width <= 1.0 / 3.0)};
            }));
    Table table({"violation distance", "attack accept (mean)",
                 "CI half-width", "<= 1/3?"});
    for (std::size_t g = points.size(); g < results.size(); ++g) {
      if (results[g].skipped) continue;  // owned by another process
      const auto& m = results[g].metrics;
      table.add_row({Table::fmt(points[(g - points.size()) *
                                       static_cast<std::size_t>(chunks)]
                                    .get_int("violation_distance")),
                     Table::fmt(m.get_double("attack_accept_mean")),
                     Table::fmt(m.get_double("ci_half_width")),
                     m.get_bool("sound") ? "yes" : "NO"});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(d) total proof vs t (the t^2 factor of Theorem 32)",
        "Stars, n = 16, d = 1, fixed reps. Expected: ~quadratic in t\n"
        "(t trees, each with ~t bundle copies at the center).");
    sweep::ParamGrid grid;
    grid.axis("t", ctx.smoke_select(std::vector<int>{2, 3, 4, 6, 8},
                                    {2, 3, 4}));
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "total_proof_vs_t", points, [](const sweep::ParamPoint& p, Rng&) {
          const int t = static_cast<int>(p.get_int("t"));
          const network::Graph g = network::Graph::star(t);
          std::vector<int> terminals;
          for (int i = 1; i <= t; ++i) terminals.push_back(i);
          const HammingGraphProtocol protocol(g, terminals, 16, 1, 0.35, 10);
          return sweep::Metrics().set("total_proof_qubits",
                                      protocol.costs().total_proof_qubits);
        },
        // Replicated: the ratio column below reads results[0] from every
        // shard.
        sweep::SweepPolicy::replicate());
    Table table({"t", "total proof (qubits)", "ratio to t=2"});
    const double base =
        static_cast<double>(results[0].metrics.get_int("total_proof_qubits"));
    for (std::size_t i = 0; i < points.size(); ++i) {
      const long long total =
          results[i].metrics.get_int("total_proof_qubits");
      table.add_row({Table::fmt(points[i].get_int("t")), Table::fmt(total),
                     Table::fmt(static_cast<double>(total) / base)});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out,
        "(e) Sec. 6.2 extensions: l1-graphs (Cor. 35) and LTF (Cor. 39)",
        "One-way substrates consumed by the same forall_t construction:\n"
        "Johnson graph J(16,5) distances via the 2-scale hypercube\n"
        "embedding; a weighted linear-threshold XOR function.");
    std::vector<sweep::ParamPoint> points;
    points.push_back(
        sweep::ParamPoint().set("predicate", "dist_J(16,5) <= 1"));
    points.push_back(sweep::ParamPoint().set("predicate", "LTF(w, theta=3)"));
    const auto results = ctx.sweep(
        "l1_and_ltf", points, [](const sweep::ParamPoint& p, Rng& rng) {
          if (p.get_string("predicate") == "dist_J(16,5) <= 1") {
            const comm::JohnsonMetric metric(16, 5);
            const comm::L1DistanceOneWayProtocol protocol(metric, 1, 0.35);
            Bitstring u = metric.random_vertex(rng);
            Bitstring close = u;
            int in_pos = -1, out_pos = -1;
            for (int i = 0; i < 16; ++i) {
              if (close.get(i) && in_pos < 0) in_pos = i;
              if (!close.get(i) && out_pos < 0) out_pos = i;
            }
            close.flip(in_pos);
            close.flip(out_pos);
            Bitstring far = metric.random_vertex(rng);
            while (metric.distance(u, far) <= 3) {
              far = metric.random_vertex(rng);
            }
            return sweep::Metrics()
                .set("yes_accept", protocol.honest_accept(u, close))
                .set("no_accept", protocol.honest_accept(u, far))
                .set("message_qubits", protocol.message_qubits());
          }
          const comm::LtfOneWayProtocol protocol({3, 2, 2, 1, 1, 1}, 3, 0.35);
          const Bitstring x = Bitstring::from_string("101010");
          const Bitstring close = Bitstring::from_string("101011");  // w 1
          const Bitstring far = Bitstring::from_string("010010");    // w 7
          return sweep::Metrics()
              .set("yes_accept", protocol.honest_accept(x, close))
              .set("no_accept", protocol.honest_accept(x, far))
              .set("message_qubits", protocol.message_qubits());
        });
    Table table({"predicate", "yes accept (honest)", "no accept (honest)",
                 "message qubits"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({points[i].get_string("predicate"),
                     Table::fmt(m.get_double("yes_accept")),
                     Table::fmt(m.get_double("no_accept")),
                     Table::fmt(m.get_int("message_qubits"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(f) Sec. 6.2 extensions: F_2-rank (Cor. 41)",
        "rank(X + Y) < r via shared-randomness sketching (substitution for\n"
        "[LZ13], DESIGN.md): one-sided completeness, cost k r^2 bits.");
    std::vector<sweep::ParamPoint> points;
    for (const auto& [n, r] : {std::pair{6, 3}, std::pair{10, 4}}) {
      points.push_back(sweep::ParamPoint().set("n", n).set("r", r));
    }
    const auto results = ctx.sweep(
        "f2_rank", points, [](const sweep::ParamPoint& p, Rng& rng) {
          const int n = static_cast<int>(p.get_int("n"));
          const int r = static_cast<int>(p.get_int("r"));
          const int k = comm::FqRankOneWayProtocol::recommended_sketches(0.02);
          const comm::FqRankOneWayProtocol protocol(n, r, k);
          const util::Gf2Matrix y = util::Gf2Matrix::random(n, n, rng);
          const util::Gf2Matrix low =
              y ^ util::Gf2Matrix::random_of_rank(n, r - 1, rng);
          double no_mean = 0.0;
          for (int trial = 0; trial < 10; ++trial) {
            const util::Gf2Matrix high =
                y ^
                util::Gf2Matrix::random_of_rank(n, std::min(n, r + 2), rng);
            no_mean +=
                protocol.honest_accept(high.to_bits(), y.to_bits()) / 10.0;
          }
          return sweep::Metrics()
              .set("yes_accept",
                   protocol.honest_accept(low.to_bits(), y.to_bits()))
              .set("no_accept_mean", no_mean)
              .set("message_bits", protocol.message_qubits());
        });
    Table table({"n", "r", "yes accept", "no accept (mean of 10)",
                 "message bits"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("n")),
                     Table::fmt(points[i].get_int("r")),
                     Table::fmt(m.get_double("yes_accept")),
                     Table::fmt(m.get_double("no_accept_mean")),
                     Table::fmt(m.get_int("message_bits"))});
    }
    table.print(out);
  }
}

}  // namespace

void register_table2_hamming() {
  sweep::register_experiment(
      {"table2_hamming",
       "Table 2, row 6 (Theorems 30/32: Hamming distance and forall_t f)",
       run});
}

}  // namespace dqma::bench
