// Crash-recovery accounting for the elastic sweep coordinator
// (src/sweep/coordinator.hpp). Not a paper table — an infrastructure
// experiment pinning the failure-handling invariants as exact integer
// metrics: a rescue worker reclaims every unit a dead worker left behind
// (done markers AND held leases) with exactly one eviction, and the
// contention backoff schedule is deterministic per (seed, worker) with the
// documented cap clamp(lease_timeout/4, 250ms, 5s).
//
// Each point simulates a crash in its own scratch coordinator directory:
// worker "a-victim" commits `pre` units and dies holding `held` leases
// (heartbeat stopped, log mtime aged past any timeout); worker "z-rescue"
// then runs one pass over all units.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "experiments.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/registry.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dqma::bench {
namespace {

namespace fs = std::filesystem;
using sweep::Coordinator;
using util::Rng;
using util::Table;

/// A scratch coordinator directory unique to this process and point;
/// removed when the simulation ends (metrics never depend on the path).
class SimDir {
 public:
  explicit SimDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("dqma_coord_recovery_" + std::to_string(::getpid()) + "_" +
               tag)) {
    fs::remove_all(path_);
  }
  ~SimDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

Coordinator::Options sim_options(const SimDir& dir, const std::string& worker,
                                 std::uint64_t base_seed, bool smoke,
                                 int lease_timeout_ms = 60000) {
  Coordinator::Options options;
  options.dir = dir.str();
  options.worker = worker;
  options.base_seed = base_seed;
  options.smoke = smoke;
  options.lease_timeout_ms = lease_timeout_ms;
  return options;
}

/// Metric name of the backoff delay of `round`: "d0", "d1", ... Appended
/// rather than built with operator+(const char*, std::string&&), whose
/// inlined insert trips GCC 12's -Wrestrict false positive at -O2.
std::string delay_metric(int round) {
  std::string name = "d";
  name += std::to_string(round);
  return name;
}

void run(sweep::ExperimentContext& ctx) {
  std::ostream& out = ctx.out();

  {
    util::print_banner(
        out, "(a) stale-worker reclaim",
        "Worker a-victim commits `pre` units and dies holding `held`\n"
        "leases; worker z-rescue runs one pass over all pre+held units.\n"
        "Expected: every unit reclaimed and re-acquired, exactly one\n"
        "eviction, the pass converges.");
    sweep::ParamGrid grid;
    grid.axis("pre", ctx.smoke_select(std::vector<int>{0, 2, 6}, {0, 2}));
    grid.axis("held", std::vector<int>{1, 3});
    const auto points = grid.enumerate();
    const std::uint64_t base_seed = ctx.base_seed();
    const bool smoke = ctx.smoke();
    const auto results = ctx.sweep(
        "recovery", points,
        [base_seed, smoke](const sweep::ParamPoint& point, Rng&) {
          const int pre = point.get_int("pre");
          const int held = point.get_int("held");
          const int total = pre + held;
          const SimDir dir("recovery_" + std::to_string(pre) + "_" +
                           std::to_string(held));
          {
            Coordinator victim(
                sim_options(dir, "a-victim", base_seed, smoke));
            victim.begin_pass();
            for (int i = 0; i < total; ++i) {
              victim.acquire(0xC0FFEEu + static_cast<std::uint64_t>(i));
            }
            for (int i = 0; i < pre; ++i) {
              victim.complete(0xC0FFEEu + static_cast<std::uint64_t>(i));
            }
            victim.stop_heartbeat();
          }
          fs::last_write_time(dir.str() + "/workers/a-victim.jsonl",
                              fs::file_time_type::clock::now() -
                                  std::chrono::minutes(10));

          Coordinator rescue(
              sim_options(dir, "z-rescue", base_seed, smoke));
          rescue.begin_pass();
          long long reacquired = 0;
          for (int i = 0; i < total; ++i) {
            if (rescue.acquire(0xC0FFEEu + static_cast<std::uint64_t>(i)) ==
                Coordinator::Claim::kAcquired) {
              ++reacquired;
            }
          }
          const auto stats = rescue.stats();
          return sweep::Metrics()
              .set("reacquired", reacquired)
              .set("reclaims", stats.reclaims)
              .set("evictions", stats.evictions)
              .set("converged", rescue.pass_converged());
        });
    Table table({"pre", "held", "reacquired", "reclaims", "evictions",
                 "converged?"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;  // owned by another --shard
      table.add_row(
          {std::to_string(points[i].get_int("pre")),
           std::to_string(points[i].get_int("held")),
           std::to_string(results[i].metrics.get_int("reacquired")),
           std::to_string(results[i].metrics.get_int("reclaims")),
           std::to_string(results[i].metrics.get_int("evictions")),
           results[i].metrics.get_bool("converged") ? "yes" : "NO"});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(b) backoff schedule determinism",
        "The first five contention delays of worker w0, per lease timeout.\n"
        "Pinned exactly: the jitter stream is seeded by (seed, worker), and\n"
        "every delay respects cap = clamp(timeout/4, 250ms, 5s).");
    sweep::ParamGrid grid;
    grid.axis("timeout_ms", std::vector<int>{1000, 20000, 60000});
    const auto points = grid.enumerate();
    const std::uint64_t base_seed = ctx.base_seed();
    const bool smoke = ctx.smoke();
    const auto results = ctx.sweep(
        "backoff", points,
        [base_seed, smoke](const sweep::ParamPoint& point, Rng&) {
          const int timeout_ms = point.get_int("timeout_ms");
          const SimDir dir("backoff_" + std::to_string(timeout_ms));
          Coordinator worker(
              sim_options(dir, "w0", base_seed, smoke, timeout_ms));
          const long long cap = std::clamp<long long>(timeout_ms / 4, 250, 5000);
          sweep::Metrics metrics;
          bool capped = true;
          for (int round = 0; round < 5; ++round) {
            const long long delay = worker.backoff_delay(round).count();
            capped = capped && delay <= cap;
            metrics.set(delay_metric(round), delay);
          }
          return metrics.set("within_cap", capped);
        });
    Table table({"timeout (ms)", "d0", "d1", "d2", "d3", "d4", "capped?"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      std::vector<std::string> row{
          std::to_string(points[i].get_int("timeout_ms"))};
      for (int round = 0; round < 5; ++round) {
        row.push_back(std::to_string(
            results[i].metrics.get_int(delay_metric(round))));
      }
      row.push_back(results[i].metrics.get_bool("within_cap") ? "yes" : "NO");
      table.add_row(row);
    }
    table.print(out);
  }
}

}  // namespace

void register_coordinator_recovery() {
  sweep::register_experiment(
      {"coordinator_recovery",
       "elastic coordinator crash recovery: reclaim/eviction accounting and "
       "backoff determinism",
       run});
}

}  // namespace dqma::bench
