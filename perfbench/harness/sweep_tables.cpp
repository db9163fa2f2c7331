// Workload `sweep_tables`: dqma_bench at --threads 2 with a fsync'ed
// checkpoint log (--resume), over the paper tables whose points are cheap
// to moderate. Each table run covers all seven experiments for one seed
// (about 210 points); a run repeats table runs over derived seeds.
//
// Protocols are rebuilt per point (the opposite reuse pattern from
// serve_mixed), point costs are skewed (0-190 ms), and every completed
// point is appended and fsync'ed to the log. table2_eq, table3_lower,
// robustness and micro are left out: reference paths (state-vector circuit
// Monte-Carlo, the power-iteration oracle) dominate their time.
//
// The operations counted are the points of the table runs; a table run that
// exits non-zero counts all its points as failed.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/result_sink.hpp"
#include "sweep/shard.hpp"
#include "sweep/trajectory.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace json = dqma::util::json;

const char* const kExperiments[] = {"table1_fgnp",    "table2_relay",
                                    "table2_gt_rv",   "table2_qmacc",
                                    "table2_hamming", "ablations",
                                    "exp_topology"};
constexpr int kThreads = 2;
constexpr int kMinRuns = 3;
constexpr int kSetupBatch = 10;  // resumes per set-up sample

struct TableRun {
  std::uint64_t seed = 0;
  std::string log;
  std::string json;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  int status = 0;
};

/// One dqma_bench table run writing `<stem>.json`; its checkpoint log is
/// `log`, or a fresh `<stem>.jsonl` when `log` is empty.
TableRun run_tables(const Options& options, std::uint64_t seed,
                    const std::string& stem, bool timings,
                    const std::string& log = {}) {
  TableRun run;
  run.seed = seed;
  run.log = log.empty() ? stem + ".jsonl" : log;
  run.json = stem + ".json";
  std::vector<std::string> argv = {options.bin_dir + "/bench/dqma_bench"};
  for (const char* experiment : kExperiments) {
    argv.push_back("--experiment");
    argv.push_back(experiment);
  }
  argv.insert(argv.end(), {"--threads", std::to_string(kThreads), "--seed",
                           std::to_string(seed), "--resume", run.log, "--json",
                           run.json});
  if (timings) {
    argv.push_back("--timings");
  }
  const auto start = Clock::now();
  const pid_t pid = spawn(argv, "", stem + ".err", program_cpus());
  const ChildExit exit = wait_child(pid);
  run.wall_s = seconds_since(start);
  run.rss_mb = exit.max_rss_mb;
  run.status = exit.status;
  return run;
}

double metric(const json::Node& metrics, const char* name, bool* found) {
  const json::Node* node = metrics.find(name);
  *found = node != nullptr;
  return node == nullptr ? 0.0 : node->as_double();
}

/// Series of the paper's own protocols: their recorded attacks must stay
/// within the soundness bound 1/3.
const std::set<std::string> kSoundSeries = {
    "executable_relay",  "gt_soundness",       "rv_stars",
    "algorithm10_paths", "theorem46_pipeline", "mc_soundness_combined"};

/// Checks the recorded tables against the paper's bounds; returns the
/// number of points.
long long check_tables(const std::string& path, Report& report) {
  const json::Node doc = json::parse(read_file(path));
  long long points = 0;
  int completeness_checks = 0;
  int soundness_checks = 0;
  int taxonomy_checks = 0;
  const auto fail = [&](const std::string& what, const std::string& series) {
    report.check(false, path + ": " + series + ": " + what);
  };
  for (const json::Node& experiment : doc.at("experiments").items()) {
    for (const json::Node& point : experiment.at("points").items()) {
      ++points;
      const std::string series = point.at("params").at("series").as_string();
      const json::Node& m = point.at("metrics");
      bool has = false;
      const double completeness = metric(m, "completeness", &has);
      if (has) {
        ++completeness_checks;
        // Algorithm 10 (one-way LSD) has completeness 1 - eps by design;
        // every other recorded protocol is perfectly complete.
        const double floor = series == "algorithm10_paths" ? 2.0 / 3.0 : 1.0 - 1e-9;
        if (completeness < floor) fail("completeness below bound", series);
      }
      const double yes = metric(m, "yes_accept", &has);
      if (has && yes < 2.0 / 3.0) fail("yes_accept below 2/3", series);
      for (const char* name : {"no_accept", "no_accept_mean"}) {
        const double no = metric(m, name, &has);
        if (has && no > 1.0 / 3.0) fail(std::string(name) + " above 1/3", series);
      }
      if (kSoundSeries.count(series) != 0) {
        for (const char* name :
             {"attack_accept", "attack_accept_false_rank", "attack_accept_mean"}) {
          const double attack = metric(m, name, &has);
          if (has) {
            ++soundness_checks;
            if (attack > 1.0 / 3.0) fail(std::string(name) + " above 1/3", series);
          }
        }
        const json::Node* sound = m.find("sound");
        if (sound != nullptr && !sound->as_bool()) fail("recorded unsound", series);
      }
      if (series == "taxonomy") {
        ++taxonomy_checks;
        double total = 0.0;
        for (const char* outcome :
             {"completeness_holds", "threshold_violated", "soundness_holds",
              "attack_succeeds", "resource_bound_exceeded"}) {
          total += m.at(outcome).as_double();
        }
        if (total != m.at("samples").as_double()) {
          fail("taxonomy outcomes do not sum to the sample count", series);
        }
      }
      if (series == "gap_vs_reps" &&
          point.at("params").at("noise").as_double() == 0.0 &&
          m.at("mean_completeness").as_double() < 1.0 - 1e-9) {
        fail("noiseless completeness below 1", series);
      }
    }
  }
  report.check(completeness_checks > 0 && soundness_checks > 0 &&
                   taxonomy_checks > 0,
               path + ": tables lack the checked completeness, soundness or "
                      "taxonomy metrics");
  return points;
}

/// Resumes a table run over its complete log and requires the rewritten
/// trajectory to be byte-identical. Returns the resume wall time.
double check_resume(const Options& options, const TableRun& run,
                    const std::string& stem, Report& report) {
  const TableRun again = run_tables(options, run.seed, stem, false, run.log);
  report.check(again.status == 0, "resume run failed: " + stem);
  report.check(read_file(again.json) == read_file(run.json),
               "resumed trajectory differs from the original: " + run.json);
  return again.wall_s;
}

}  // namespace

void run_sweep_tables(const Options& options, Report& report) {
  pin_current_thread(client_cpus());
  const std::string dir = options.work_dir + "/sweep";
  std::filesystem::create_directories(dir);

  // Warm-up table run. Set-up is measured as resumes over its complete log:
  // launch, registration, checkpoint-log open and replay, and the
  // trajectory write, i.e. a table run without point computation. One
  // batch of resumes follows every timed table run, so the set-up median
  // follows the host over the whole run.
  const TableRun warm =
      run_tables(options, dqma::util::derive_seed(options.seed, 1000), dir + "/warm", false);
  if (warm.status != 0) {
    throw std::runtime_error("warm-up table run failed");
  }
  // The point grids do not depend on the seed: a failed table run counts
  // the warm-up run's points.
  const long long points_per_run = check_tables(warm.json, report);

  std::vector<double> setup;
  std::vector<TableRun> runs;
  const auto start = Clock::now();
  for (int i = 0; static_cast<int>(runs.size()) < kMinRuns ||
                  seconds_since(start) < options.seconds;
       ++i) {
    const std::string stem = dir + "/run" + std::to_string(i);
    runs.push_back(run_tables(options, dqma::util::derive_seed(options.seed, i), stem, false));
    for (int k = 0; k < kSetupBatch; ++k) {
      setup.push_back(check_resume(options, warm, dir + "/replay", report));
    }
  }

  std::vector<double> walls;
  double rss = 0.0;
  std::size_t completed = 0;
  long long points = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    walls.push_back(runs[i].wall_s);
    rss = std::max(rss, runs[i].rss_mb);
    if (runs[i].status != 0) {
      std::cerr << "perfbench: table run exited with " << runs[i].status << ": "
                << runs[i].json << "\n";
      report.attempted += points_per_run;
      report.failed += points_per_run;
      continue;
    }
    ++completed;
    const long long run_points = check_tables(runs[i].json, report);
    report.check(run_points == points_per_run,
                 runs[i].json + ": point count differs from the warm-up run");
    report.attempted += run_points;
    points += run_points;
    check_resume(options, runs[i], dir + "/resume" + std::to_string(i), report);
  }
  report.e2e("setup_s", batch_median(setup, kSetupBatch), "s");
  report.e2e("peak_rss_mb", rss, "MB");
  report.e2e("ops_per_s", static_cast<double>(completed) / sum(walls), "1/s");
  std::printf("sweep: %zu table runs (%zu completed), %lld points, median run %.3f s,"
              " %.1f points/s\n",
              runs.size(), completed, points, median(walls), points / sum(walls));
}

void trace_sweep_tables(const Options& options, Report& report) {
  pin_current_thread(client_cpus());
  const std::string dir = options.work_dir + "/sweep-trace";
  std::filesystem::create_directories(dir);
  run_tables(options, dqma::util::derive_seed(options.seed, 1000), dir + "/warm", false);

  // Alternating untraced and --timings runs of the same seeds: the wall
  // ratio is the tracing overhead.
  double untraced = 0.0;
  double traced = 0.0;
  std::vector<TableRun> timed;
  for (int i = 0; i < 2; ++i) {
    const std::string stem = dir + "/plain" + std::to_string(i);
    const TableRun plain =
        run_tables(options, dqma::util::derive_seed(options.seed, i), stem, false);
    timed.push_back(run_tables(options, dqma::util::derive_seed(options.seed, i),
                               dir + "/timed" + std::to_string(i), true));
    report.check(plain.status == 0 && timed.back().status == 0, "table run failed");
    untraced += plain.wall_s;
    traced += timed.back().wall_s;
    check_resume(options, plain, dir + "/resume" + std::to_string(i), report);
  }
  report.layer("trace.overhead_share.sweep", traced / untraced - 1.0, "ratio");

  double points = 0.0;
  double compute_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> per_experiment(std::size(kExperiments), 0.0);
  for (const TableRun& run : timed) {
    points += static_cast<double>(check_tables(run.json, report));
    const auto trajectory = dqma::sweep::Trajectory::load(run.json);
    for (const auto& record : trajectory.experiments) {
      const auto at = std::find_if(std::begin(kExperiments), std::end(kExperiments),
                                   [&](const char* e) { return record.name == e; });
      for (const auto& point : record.points) {
        compute_s += point.wall_ms / 1000.0;
        per_experiment[at - std::begin(kExperiments)] += point.wall_ms / 1000.0;
      }
    }
    wall_s += run.wall_s;
  }
  report.attempted += static_cast<long long>(points);
  const double n = static_cast<double>(timed.size());
  report.layer("sweep.points", points / n, "count");
  report.layer("sweep.compute_s", compute_s / n, "s");
  report.layer("sweep.idle_share", 1.0 - compute_s / (wall_s * kThreads), "ratio");
  report.layer("sweep.points_per_s", points / wall_s, "1/s");
  for (std::size_t e = 0; e < per_experiment.size(); ++e) {
    report.layer(std::string("dqma.point_s.") + kExperiments[e], per_experiment[e] / n, "s");
  }

  // Checkpoint layer: re-append the run's own log lines (fsync on) to a
  // fresh log, replay the complete log, and rewrite the trajectory.
  const TableRun& run = timed.front();
  std::vector<std::string> lines;
  {
    std::ifstream in(run.log);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  const std::string fresh = dir + "/append.jsonl";
  {
    dqma::sweep::CheckpointLog log(fresh, run.seed, false, {});
    const auto start = Clock::now();
    for (const std::string& line : lines) {
      const json::Node node = json::parse(line);
      dqma::sweep::JobResult result;
      result.metrics = dqma::sweep::named_values_from_json(node.at("metrics"));
      result.wall_ms = node.at("wall_ms").as_double();
      log.append(node.at("experiment").as_string(), node.at("series").as_string(),
                 static_cast<std::size_t>(node.at("order").as_uint()),
                 node.at("key").as_uint(),
                 dqma::sweep::named_values_from_json(node.at("params")), result);
    }
    report.layer("sweep.append_ms",
                 1000.0 * seconds_since(start) / static_cast<double>(lines.size()),
                 "ms");
  }
  std::vector<double> replay;
  std::vector<double> write;
  const auto trajectory = dqma::sweep::Trajectory::load(run.json);
  dqma::sweep::ResultSink::WriteOptions write_options;
  write_options.base_seed = run.seed;
  write_options.include_timings = true;
  for (int i = 0; i < 5; ++i) {
    auto start = Clock::now();
    {
      const dqma::sweep::CheckpointLog log(fresh, run.seed, false, {});
      report.check(log.loaded_entries() == lines.size(),
                   "replayed log lost entries");
    }
    replay.push_back(1000.0 * seconds_since(start));
    start = Clock::now();
    {
      std::ofstream out(dir + "/rewrite.json");
      dqma::sweep::trajectory_to_json(trajectory.experiments, write_options).write(out);
    }
    write.push_back(1000.0 * seconds_since(start));
  }
  report.layer("sweep.replay_ms", median(replay), "ms");
  report.layer("sweep.json_write_ms", median(write), "ms");
}

}  // namespace perfbench
