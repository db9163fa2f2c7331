#include "sweep/registry.hpp"

#include "sweep/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>

#include <random>

#include "linalg/simd.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/trajectory.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace dqma::sweep {
namespace {

std::vector<Experiment>& registry() {
  static std::vector<Experiment> experiments;
  return experiments;
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void register_experiment(Experiment experiment) {
  util::require(!experiment.name.empty(),
                "register_experiment: empty experiment name");
  for (const auto& existing : registry()) {
    util::require(existing.name != experiment.name,
                  "register_experiment: duplicate name " + experiment.name);
  }
  registry().push_back(std::move(experiment));
}

const std::vector<Experiment>& experiments() { return registry(); }

/// A run of work units: the records they emit in canonical order, the jobs
/// that compute them, and how the jobs are dispatched.
struct ExperimentContext::Plan {
  struct Record {
    const std::string* series;
    const ParamPoint* params;
    std::size_t unit;
  };
  /// Computes records [first, first + count) of one unit.
  struct Job {
    std::size_t unit;
    std::size_t first;
    std::size_t count;
    std::uint64_t seed;
  };

  std::vector<Record> records;
  std::vector<Job> jobs;
  std::vector<std::uint64_t> unit_keys;
  /// Fills results[job.first, job.first + job.count).
  std::function<void(const Job&, util::Rng&, JobResult*)> run;
  /// Runs in the owning process once all of a unit's jobs have results,
  /// before the unit is committed (group reducers).
  std::function<void(std::size_t unit, std::vector<JobResult>&)> finish;
  bool serial = false;
  /// Every process computes every unit; ownership decides recording only.
  bool replicate = false;
};

ExperimentContext::ExperimentContext(const Experiment& experiment,
                                     ThreadPool& pool, ResultSink& sink,
                                     std::ostream& out, bool smoke,
                                     std::uint64_t global_seed,
                                     const RunControls* controls)
    : name_(experiment.name),
      pool_(pool),
      sink_(sink),
      out_(out),
      smoke_(smoke),
      base_seed_(util::derive_seed(global_seed, fnv1a64(experiment.name))),
      controls_(controls) {}

std::uint64_t ExperimentContext::next_record_key(const std::string& series) {
  return util::derive_seed(util::derive_seed(base_seed_, fnv1a64(series)),
                           record_counts_[series]++);
}

void ExperimentContext::execute(const Plan& plan,
                                std::vector<JobResult>& results) {
  const std::size_t first_order = next_order_;
  next_order_ += plan.records.size();
  CheckpointLog* log = controls_ != nullptr ? controls_->checkpoint : nullptr;
  Coordinator* coordinator =
      controls_ != nullptr ? controls_->coordinator : nullptr;
  const ShardSpec shard = controls_ != nullptr ? controls_->shard : ShardSpec{};
  enum : char { kUndecided, kOwned, kForeign };

  // The ownership rule. A unit whose values are at hand (logged, or given
  // inline) is claimed `ready` for recording; a unit still to compute is
  // claimed for running — under --coordinate a lease, committed after the
  // unit's records are logged.
  const auto claim = [&](std::size_t u, bool ready) {
    const std::uint64_t key = plan.unit_keys[u];
    if (coordinator == nullptr) {
      return shard.contains(key) ? kOwned : kForeign;
    }
    const auto claimed =
        ready ? coordinator->commit_ready(key) : coordinator->acquire(key);
    return claimed == Coordinator::Claim::kAcquired ? kOwned : kForeign;
  };

  // Jobs whose every record is in the log are loaded, never rerun.
  std::vector<std::size_t> to_run;
  const std::size_t unit_count = plan.unit_keys.size();
  std::vector<std::size_t> scheduled(unit_count, 0);
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const Plan::Job& job = plan.jobs[j];
    bool cached = log != nullptr;
    for (std::size_t r = job.first; cached && r < job.first + job.count;
         ++r) {
      const CheckpointLog::Entry* entry = log->find(name_, first_order + r);
      if (entry == nullptr) {
        cached = false;
        break;
      }
      util::require(entry->key == plan.unit_keys[job.unit] &&
                        serialize_identically(entry->params,
                                              *plan.records[r].params),
                    "checkpoint entry for " + name_ + "[" +
                        std::to_string(first_order + r) +
                        "] does not match this run's job (the log belongs "
                        "to a different workload)");
      results[r].metrics = entry->metrics;
      results[r].wall_ms = entry->wall_ms;
    }
    if (!cached) {
      to_run.push_back(j);
      ++scheduled[job.unit];
    }
  }

  // Ownership is settled up front, except that a coordinated unit with one
  // job left is leased only when that job starts, so concurrent workers
  // steal work from each other unit by unit.
  std::vector<char> owner(unit_count, kUndecided);
  for (std::size_t u = 0; u < unit_count; ++u) {
    if (coordinator == nullptr || scheduled[u] != 1) {
      owner[u] = claim(u, /*ready=*/scheduled[u] == 0);
    }
  }
  std::erase_if(to_run, [&](std::size_t j) {
    return owner[plan.jobs[j].unit] == kForeign && !plan.replicate;
  });

  // Runs for every owned unit; a unit that was leased is committed.
  const auto finish = [&](std::size_t u) {
    if (plan.finish) {
      plan.finish(u, results);
    }
    if (coordinator != nullptr && scheduled[u] > 0) {
      coordinator->complete(plan.unit_keys[u]);
    }
  };
  std::vector<std::atomic<std::size_t>> pending(scheduled.begin(),
                                                scheduled.end());
  const auto run_job = [&](std::size_t slot) {
    const Plan::Job& job = plan.jobs[to_run[slot]];
    const std::size_t u = job.unit;
    if (owner[u] == kUndecided) {  // only this job touches its unit
      owner[u] = claim(u, /*ready=*/false);
    }
    if (owner[u] == kForeign && !plan.replicate) {
      return;
    }
    util::Rng rng(job.seed);
    plan.run(job, rng, &results[job.first]);
    if (owner[u] != kOwned) {
      return;
    }
    // Log first, commit after: a committed unit is always recoverable.
    if (log != nullptr) {
      for (std::size_t r = job.first; r < job.first + job.count; ++r) {
        log->append(name_, *plan.records[r].series, first_order + r,
                    plan.unit_keys[u], *plan.records[r].params, results[r]);
      }
    }
    if (pending[u].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish(u);
    }
  };
  if (plan.serial) {
    for (std::size_t slot = 0; slot < to_run.size(); ++slot) {
      run_job(slot);
    }
  } else {
    pool_.run_indexed(to_run.size(), run_job);
  }

  for (std::size_t u = 0; u < unit_count; ++u) {
    if (owner[u] == kOwned && scheduled[u] == 0) {
      finish(u);
    }
  }
  for (std::size_t r = 0; r < plan.records.size(); ++r) {
    const Plan::Record& record = plan.records[r];
    if (owner[record.unit] == kOwned) {
      ParamPoint prefixed;
      prefixed.set("series", *record.series);
      for (const auto& [name, value] : record.params->entries()) {
        prefixed.set(name, value);
      }
      sink_.add_point(std::move(prefixed), results[r].metrics,
                      results[r].wall_ms, first_order + r);
    } else if (!plan.replicate) {
      results[r] = JobResult{};
      results[r].skipped = true;
    }
  }
}

std::vector<JobResult> ExperimentContext::run_series(
    const std::string& series, const std::vector<ParamPoint>& points,
    const JobFn& fn, const SweepPolicy& policy, bool serial) {
  const std::uint64_t seed = util::derive_seed(base_seed_, fnv1a64(series));
  const bool grouped = policy.mode == SweepPolicy::Mode::kGroupBy;
  Plan plan;
  plan.serial = serial;
  plan.replicate = policy.mode == SweepPolicy::Mode::kReplicate;
  plan.run = [&](const Plan::Job& job, util::Rng& rng, JobResult* out) {
    const auto start = std::chrono::steady_clock::now();
    out->metrics = fn(points[job.first], rng);
    out->wall_ms = elapsed_ms(start);
  };

  // One unit per point, keyed by its seed; or one per group, keyed by the
  // group's value. Seeding is per point in every mode.
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::size_t u = plan.unit_keys.size();
    if (grouped) {
      const Value* group = points[i].find(policy.group_param);
      util::require(group != nullptr,
                    "sweep '" + series + "': group_by param '" +
                        policy.group_param + "' missing from point");
      const std::uint64_t key =
          util::derive_seed(seed, fnv1a64(value_to_string(*group)));
      u = static_cast<std::size_t>(
          std::find(plan.unit_keys.begin(), plan.unit_keys.end(), key) -
          plan.unit_keys.begin());
      if (u == plan.unit_keys.size()) {
        plan.unit_keys.push_back(key);
        members.emplace_back();
      }
      members[u].push_back(i);
    } else {
      plan.unit_keys.push_back(util::derive_seed(seed, i));
    }
    plan.records.push_back({&series, &points[i], u});
    plan.jobs.push_back({u, i, 1, util::derive_seed(seed, i)});
  }

  std::vector<ParamPoint> derived_params(members.size());
  if (grouped && policy.reduce) {
    for (std::size_t g = 0; g < members.size(); ++g) {
      plan.records.push_back({&policy.derived_series, &derived_params[g], g});
    }
    plan.finish = [&](std::size_t g, std::vector<JobResult>& results) {
      std::vector<ParamPoint> group_points;
      std::vector<JobResult> group_results;
      for (const std::size_t i : members[g]) {
        group_points.push_back(points[i]);
        group_results.push_back(results[i]);
      }
      DerivedPoint derived = policy.reduce(group_points, group_results);
      derived_params[g] = std::move(derived.params);
      results[points.size() + g].metrics = std::move(derived.metrics);
    };
  }

  std::vector<JobResult> results(plan.records.size());
  execute(plan, results);
  return results;
}

std::vector<JobResult> ExperimentContext::sweep(
    const std::string& series, const std::vector<ParamPoint>& points,
    const JobFn& fn, const SweepPolicy& policy) {
  return run_series(series, points, fn, policy, /*serial=*/false);
}

std::vector<JobResult> ExperimentContext::sweep(const std::string& series,
                                                const ParamGrid& grid,
                                                const JobFn& fn,
                                                const SweepPolicy& policy) {
  return sweep(series, grid.enumerate(), fn, policy);
}

std::vector<JobResult> ExperimentContext::serial_sweep(
    const std::string& series, const std::vector<ParamPoint>& points,
    const JobFn& fn) {
  return run_series(series, points, fn, SweepPolicy{}, /*serial=*/true);
}

std::vector<JobResult> ExperimentContext::unit(
    const std::vector<UnitRecord>& records, const UnitFn& fn) {
  util::require(!records.empty(), "unit: no records");
  Plan plan;
  plan.serial = true;
  for (const UnitRecord& record : records) {
    const std::uint64_t key = next_record_key(record.series);
    if (plan.unit_keys.empty()) {
      plan.unit_keys.push_back(key);
    }
    plan.records.push_back({&record.series, &record.params, 0});
  }
  plan.jobs.push_back({0, 0, records.size(), plan.unit_keys[0]});
  plan.run = [&](const Plan::Job&, util::Rng& rng, JobResult* out) {
    std::vector<JobResult> computed = fn(rng);
    util::require(computed.size() == records.size(),
                  "unit: fn returned " + std::to_string(computed.size()) +
                      " results for " + std::to_string(records.size()) +
                      " records");
    std::move(computed.begin(), computed.end(), out);
  };
  std::vector<JobResult> results(records.size());
  execute(plan, results);
  return results;
}

void ExperimentContext::record(const std::string& series, ParamPoint params,
                               Metrics metrics, double wall_ms) {
  Plan plan;
  plan.unit_keys.push_back(next_record_key(series));
  plan.records.push_back({&series, &params, 0});
  std::vector<JobResult> results(1);
  results[0].metrics = std::move(metrics);
  results[0].wall_ms = wall_ms;
  execute(plan, results);
}

namespace {

void print_usage(std::ostream& os) {
  os << "Usage: dqma_bench [options]\n\n"
        "Options:\n"
        "  --experiment <name|all>  experiment(s) to run (repeatable; "
        "default all)\n"
        "  --list                   list registered experiments and exit\n"
        "  --json <path>            write structured results (schema v1); "
        "'-' for stdout\n"
        "  --threads <N>            sweep threads (default: hardware "
        "concurrency)\n"
        "  --smoke                  shrink heavy sweeps\n"
        "  --seed <N>               global base seed (default 0)\n"
        "  --timings                include nondeterministic wall_ms fields "
        "in JSON\n"
        "  --shard <i/N>            run shard i of N (0-based): a "
        "deterministic,\n"
        "                           disjoint slice of the job space; "
        "--merge of all\n"
        "                           N shard JSONs == the unsharded document\n"
        "  --resume <log.jsonl>     checkpoint log: completed units are "
        "appended as\n"
        "                           they finish and skipped on the next run\n"
        "  --merge <a.json> <b.json> ...\n"
        "                           reassemble shard documents into the "
        "canonical\n"
        "                           trajectory (write it with --json)\n"
        "  --compare <baseline.json>\n"
        "                           diff the produced document against a "
        "baseline\n"
        "                           (exact for int/bool/string metrics, "
        "relative\n"
        "                           tolerance for floating ones); exit 1 on "
        "any diff\n"
        "  --tolerance <x>          floating tolerance for --compare "
        "(default 1e-9)\n"
        "  --simd <level>           kernel dispatch level: scalar|avx2|"
        "avx512|native\n"
        "                           (default: DQMA_SIMD env var, else CPU "
        "detection)\n"
        "  --coordinate <dir>       elastic worker mode: lease work units "
        "from the\n"
        "                           shared directory <dir> (any number of "
        "workers,\n"
        "                           crash-tolerant); requires --json; "
        "--merge of all\n"
        "                           finalized workers == the monolithic "
        "document\n"
        "  --worker <id>            stable worker id for --coordinate "
        "(default:\n"
        "                           generated; reuse it to resume a crashed "
        "worker's\n"
        "                           checkpoint log)\n"
        "  --lease-timeout <ms>     heartbeat staleness bound for "
        "--coordinate:\n"
        "                           a worker silent this long is declared "
        "dead and\n"
        "                           its units are reclaimed (default "
        "60000)\n"
        "  --help                   this message\n";
}

bool parse_cli(int argc, const char* const* argv, CliOptions& options,
               std::string& error) {
  bool merge_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--experiment") {
      const char* value = next_value("--experiment");
      if (value == nullptr) return false;
      if (std::strcmp(value, "all") != 0) {
        options.experiments.emplace_back(value);
      }
    } else if (arg == "--list") {
      options.list_only = true;
    } else if (arg == "--json") {
      const char* value = next_value("--json");
      if (value == nullptr) return false;
      options.json_path = value;
    } else if (arg == "--threads") {
      const char* value = next_value("--threads");
      if (value == nullptr) return false;
      if (!util::parse_number(value, options.threads) ||
          options.threads <= 0) {
        error = "--threads requires a positive integer";
        return false;
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--timings") {
      options.timings = true;
    } else if (arg == "--seed") {
      const char* value = next_value("--seed");
      if (value == nullptr) return false;
      if (!util::parse_number(value, options.seed)) {
        error = "--seed requires a non-negative integer";
        return false;
      }
    } else if (arg == "--shard") {
      const char* value = next_value("--shard");
      if (value == nullptr) return false;
      options.shard = value;
    } else if (arg == "--resume") {
      const char* value = next_value("--resume");
      if (value == nullptr) return false;
      options.resume_path = value;
    } else if (arg == "--coordinate") {
      const char* value = next_value("--coordinate");
      if (value == nullptr) return false;
      options.coordinate_dir = value;
    } else if (arg == "--worker") {
      const char* value = next_value("--worker");
      if (value == nullptr) return false;
      options.worker_id = value;
    } else if (arg == "--lease-timeout") {
      const char* value = next_value("--lease-timeout");
      if (value == nullptr) return false;
      if (!util::parse_number(value, options.lease_timeout_ms) ||
          options.lease_timeout_ms <= 0) {
        error = "--lease-timeout requires a positive integer (ms)";
        return false;
      }
    } else if (arg == "--simd") {
      const char* value = next_value("--simd");
      if (value == nullptr) return false;
      options.simd = value;
    } else if (arg == "--compare") {
      const char* value = next_value("--compare");
      if (value == nullptr) return false;
      options.compare_path = value;
    } else if (arg == "--tolerance") {
      const char* value = next_value("--tolerance");
      if (value == nullptr) return false;
      if (!util::parse_number(value, options.tolerance) ||
          options.tolerance < 0.0) {
        error = "--tolerance requires a non-negative number";
        return false;
      }
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg.rfind("--", 0) != 0 && merge_mode) {
      options.merge_inputs.push_back(arg);
    } else if (arg == "--help" || arg == "-h") {
      options.list_only = false;
      error = "help";
      return false;
    } else {
      error = "unknown option " + arg;
      return false;
    }
  }
  if (merge_mode && options.merge_inputs.empty()) {
    error = "--merge requires at least one input document";
    return false;
  }
  return true;
}

/// Fail-fast validation of paths and flag combinations, before any
/// experiment runs: a long sweep must not discover at write time that its
/// --json directory never existed.
bool validate_options(const CliOptions& options, std::string& error) {
  namespace fs = std::filesystem;
  const auto parent_exists = [](const std::string& path) {
    const fs::path parent = fs::path(path).parent_path();
    std::error_code ec;
    return parent.empty() || fs::is_directory(parent, ec);
  };

  if (!options.shard.empty()) {
    try {
      ShardSpec::parse(options.shard);
    } catch (const std::invalid_argument& e) {
      error = e.what();
      return false;
    }
  }
  if (!options.json_path.empty() && options.json_path != "-" &&
      !parent_exists(options.json_path)) {
    error = "--json: directory of '" + options.json_path +
            "' does not exist";
    return false;
  }
  if (!options.resume_path.empty() && !parent_exists(options.resume_path)) {
    error = "--resume: directory of '" + options.resume_path +
            "' does not exist";
    return false;
  }
  if (!options.compare_path.empty()) {
    std::error_code ec;
    if (!fs::is_regular_file(options.compare_path, ec)) {
      error = "--compare: baseline '" + options.compare_path +
              "' does not exist";
      return false;
    }
  }
  for (const std::string& input : options.merge_inputs) {
    std::error_code ec;
    if (!fs::is_regular_file(input, ec)) {
      error = "--merge: input '" + input + "' does not exist";
      return false;
    }
  }
  if (!options.merge_inputs.empty()) {
    if (!options.experiments.empty() || options.list_only ||
        !options.shard.empty() || !options.resume_path.empty()) {
      error = "--merge cannot be combined with --experiment/--list/--shard/"
              "--resume";
      return false;
    }
    if (options.json_path.empty() && options.compare_path.empty()) {
      error = "--merge needs --json (write the merged document) and/or "
              "--compare (diff it)";
      return false;
    }
  } else if (!options.compare_path.empty() && !options.shard.empty()) {
    error = "--compare needs a complete document; a shard run cannot be "
            "compared (merge the shards first)";
    return false;
  }
  if (!options.coordinate_dir.empty()) {
    if (!options.shard.empty() || !options.resume_path.empty() ||
        !options.merge_inputs.empty() || !options.compare_path.empty() ||
        options.list_only) {
      error = "--coordinate cannot be combined with "
              "--shard/--resume/--merge/--compare/--list (the coordinator "
              "partitions and checkpoints by itself)";
      return false;
    }
    if (options.json_path.empty() || options.json_path == "-") {
      error = "--coordinate requires --json <file>: the worker's partial "
              "document is what --merge reassembles";
      return false;
    }
    if (options.worker_id.find('/') != std::string::npos) {
      error = "--worker id must not contain '/'";
      return false;
    }
  } else if (!options.worker_id.empty()) {
    error = "--worker only makes sense with --coordinate";
    return false;
  }
  return true;
}

/// Shared by the run and merge paths: diff `current` against the baseline
/// file, report to stderr, and return the process exit code.
int run_compare(const Trajectory& current, const CliOptions& options) {
  const Trajectory baseline = Trajectory::load(options.compare_path);
  CompareOptions compare_options;
  compare_options.tolerance = options.tolerance;
  compare_options.allow_missing_experiments = !options.experiments.empty();
  const std::size_t differences =
      compare_trajectories(baseline, current, compare_options, std::cerr);
  if (differences != 0) {
    std::cerr << "dqma_bench: " << differences
              << " difference(s) vs baseline " << options.compare_path
              << "\n";
    return 1;
  }
  std::cerr << "dqma_bench: no differences vs baseline "
            << options.compare_path << " (tolerance "
            << options.tolerance << ")\n";
  return 0;
}

int run_merge(const CliOptions& options) {
  std::vector<Trajectory> inputs;
  inputs.reserve(options.merge_inputs.size());
  for (const std::string& path : options.merge_inputs) {
    inputs.push_back(Trajectory::load(path));
  }
  const Trajectory merged = merge_trajectories(std::move(inputs));
  if (!options.json_path.empty()) {
    const Json document = merged.to_json();
    if (options.json_path == "-") {
      document.write(std::cout);
    } else {
      std::ofstream file(options.json_path);
      util::require(static_cast<bool>(file),
                    "cannot open " + options.json_path + " for writing");
      document.write(file);
      std::cout << "Merged " << options.merge_inputs.size()
                << " document(s) into " << options.json_path << "\n";
    }
  }
  if (!options.compare_path.empty()) {
    return run_compare(merged, options);
  }
  return 0;
}

/// One pass over the selected experiments into `sink`, ASCII tables on
/// `out`; adds one row per experiment to `summary` when given.
void run_experiments(const std::vector<const Experiment*>& selected,
                     const CliOptions& options, ThreadPool& pool,
                     const RunControls& controls, ResultSink& sink,
                     std::ostream& out, util::Table* summary) {
  for (const Experiment* experiment : selected) {
    out << "==== experiment: " << experiment->name << " ====\n"
        << experiment->description << "\n";
    sink.begin_experiment(experiment->name, experiment->description);
    const std::size_t points_before = sink.point_count();
    const auto start = std::chrono::steady_clock::now();
    ExperimentContext context(*experiment, pool, sink, out, options.smoke,
                              options.seed, &controls);
    experiment->run(context);
    const double wall = elapsed_ms(start);
    sink.end_experiment(wall);
    if (summary != nullptr) {
      summary->add_row(
          {experiment->name,
           util::Table::fmt(
               static_cast<long long>(sink.point_count() - points_before)),
           util::Table::fmt(static_cast<long long>(wall + 0.5))});
    }
  }
}

/// The elastic worker driver (--coordinate): loops execution passes until
/// every work unit is committed by a live or finalized worker, writes this
/// worker's partial document, then publishes the `.final` marker. Exit
/// codes: 0 finalized, 1 error, 3 evicted (a peer declared this worker
/// dead and is recomputing its units).
int run_coordinated(const CliOptions& options,
                    const std::vector<const Experiment*>& selected,
                    ThreadPool& pool) {
  namespace fs = std::filesystem;
  Coordinator::Options coordinator_options;
  coordinator_options.dir = options.coordinate_dir;
  coordinator_options.worker = options.worker_id;
  coordinator_options.base_seed = options.seed;
  coordinator_options.smoke = options.smoke;
  coordinator_options.lease_timeout_ms = options.lease_timeout_ms;
  if (coordinator_options.worker.empty()) {
    // Default id: unique across processes and hosts sharing the directory.
    // A FIXED --worker id is what lets a restarted worker reuse its
    // checkpoint log instead of waiting out its own lease timeout.
    std::random_device seed_device;
#ifndef _WIN32
    const long long pid = static_cast<long long>(::getpid());
#else
    const long long pid = 0;
#endif
    coordinator_options.worker = "w" + std::to_string(pid) + "-" +
                                 std::to_string(seed_device() % 100000);
  }

  try {
    Coordinator coordinator(coordinator_options);
    RunControls controls;
    controls.checkpoint = &coordinator.log();
    controls.coordinator = &coordinator;
    // Workers are batch processes possibly looping several passes: ASCII
    // tables are suppressed, progress goes to stderr, and only the final
    // pass's document is written.
    std::ofstream null_stream;
    null_stream.setstate(std::ios_base::badbit);

    ResultSink sink;
    // Repeat passes are cheap — everything this worker committed replays
    // from its checkpoint log — so the cap only guards a livelock bug.
    constexpr int kMaxPasses = 10000;
    for (int pass = 0;; ++pass) {
      coordinator.begin_pass();
      ResultSink pass_sink;
      run_experiments(selected, options, pool, controls, pass_sink,
                      null_stream, nullptr);
      if (coordinator.pass_converged()) {
        sink = std::move(pass_sink);
        break;
      }
      util::require(pass + 1 < kMaxPasses,
                    "coordinate: no convergence after " +
                        std::to_string(kMaxPasses) + " passes");
      coordinator.backoff_sleep();
    }

    ResultSink::WriteOptions write_options;
    write_options.smoke = options.smoke;
    write_options.base_seed = options.seed;
    write_options.include_timings = options.timings;
    write_options.coordinated = true;
    {
      std::ofstream file(options.json_path);
      if (!file) {
        std::cerr << "dqma_bench: cannot open " << options.json_path
                  << " for writing\n";
        return 1;
      }
      sink.write_json(file, write_options);
    }
    // Document on disk first, then the .final marker: a crash in between
    // leaves a stale worker whose units get reclaimed, never a finalized
    // worker without a document.
    coordinator.finalize();
    const Coordinator::Stats stats = coordinator.stats();
    std::cerr << "dqma_bench: worker " << coordinator.worker()
              << " finalized: " << stats.acquired << " acquired, "
              << stats.cached << " cached, " << stats.done_elsewhere
              << " done elsewhere, " << stats.busy << " busy, "
              << stats.reclaims << " reclaims, " << stats.evictions
              << " evictions, " << stats.passes << " pass(es)\n";
    return 0;
  } catch (const WorkerEvicted& e) {
    // Any document written by an evicted worker must never feed --merge.
    std::error_code ec;
    fs::remove(options.json_path, ec);
    std::cerr << "dqma_bench: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "dqma_bench: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int cli_main(int argc, const char* const* argv) {
  CliOptions options;
  std::string error;
  if (!parse_cli(argc, argv, options, error)) {
    if (error == "help") {
      print_usage(std::cout);
      return 0;
    }
    std::cerr << "dqma_bench: " << error << "\n";
    print_usage(std::cerr);
    return 2;
  }
  if (!validate_options(options, error)) {
    std::cerr << "dqma_bench: " << error << "\n";
    return 2;
  }
  // SIMD dispatch resolution (--simd over DQMA_SIMD over CPU detection),
  // up front so a bad level name or an unsupported request fails here with
  // a readable message instead of inside a kernel.
  try {
    linalg::simd::resolve_startup(options.simd);
  } catch (const std::exception& e) {
    std::cerr << "dqma_bench: " << e.what() << "\n";
    return 2;
  }

  if (!options.merge_inputs.empty()) {
    try {
      return run_merge(options);
    } catch (const std::exception& e) {
      std::cerr << "dqma_bench: " << e.what() << "\n";
      return 1;
    }
  }

  if (options.list_only) {
    for (const auto& experiment : experiments()) {
      std::cout << experiment.name << "  " << experiment.description << "\n";
    }
    return 0;
  }

  // Resolve the selection (default: all, in registration order).
  std::vector<const Experiment*> selected;
  if (options.experiments.empty()) {
    for (const auto& experiment : experiments()) {
      selected.push_back(&experiment);
    }
  } else {
    for (const auto& name : options.experiments) {
      const Experiment* found = nullptr;
      for (const auto& experiment : experiments()) {
        if (experiment.name == name) {
          found = &experiment;
          break;
        }
      }
      if (found == nullptr) {
        std::cerr << "dqma_bench: unknown experiment '" << name
                  << "' (--list shows the registry)\n";
        return 2;
      }
      // Dedup repeated selections: experiment names are the JSON
      // document's only identifier, so each may appear at most once.
      if (std::find(selected.begin(), selected.end(), found) ==
          selected.end()) {
        selected.push_back(found);
      }
    }
  }

  ThreadPool pool(options.threads);
  // Second parallelism level: kernels dispatched OUTSIDE sweep jobs (serial
  // heavy-point loops, analyzer construction on the main thread) fan out
  // across the same --threads budget; kernels inside sweep jobs stay serial
  // (sweep/parallel.hpp nesting contract), so the two levels never
  // oversubscribe each other.
  set_kernel_threads(options.threads);

  if (!options.coordinate_dir.empty()) {
    return run_coordinated(options, selected, pool);
  }

  ResultSink sink;
  const bool json_to_stdout = options.json_path == "-";
  std::ostream& out = std::cout;

  RunControls controls;
  std::optional<CheckpointLog> checkpoint;
  if (!options.shard.empty()) {
    controls.shard = ShardSpec::parse(options.shard);
  }
  if (!options.resume_path.empty()) {
    try {
      checkpoint.emplace(options.resume_path, options.seed, options.smoke,
                         controls.shard);
    } catch (const std::exception& e) {
      std::cerr << "dqma_bench: " << e.what() << "\n";
      return 1;
    }
    controls.checkpoint = &*checkpoint;
    if (checkpoint->loaded_entries() > 0 && !json_to_stdout) {
      out << "Resuming from " << options.resume_path << ": "
          << checkpoint->loaded_entries() << " completed point(s)\n";
    }
  }

  util::Table summary({"experiment", "points", "wall (ms)"});
  // With JSON on stdout, ASCII tables are suppressed so stdout stays a
  // valid JSON document.
  std::ofstream null_stream;
  null_stream.setstate(std::ios_base::badbit);
  run_experiments(selected, options, pool, controls, sink,
                  json_to_stdout ? null_stream : out, &summary);

  if (!json_to_stdout) {
    out << "\n";
    util::print_banner(out, "summary",
                       "Wall-clock per experiment at --threads " +
                           std::to_string(pool.thread_count()) +
                           (options.smoke ? " (smoke mode)" : "") + ".");
    summary.print(out);
  }

  if (!options.json_path.empty()) {
    const ResultSink::WriteOptions write_options{
        options.smoke,          options.seed,
        options.timings,        controls.shard.index,
        controls.shard.count};
    if (json_to_stdout) {
      sink.write_json(std::cout, write_options);
    } else {
      std::ofstream file(options.json_path);
      if (!file) {
        std::cerr << "dqma_bench: cannot open " << options.json_path
                  << " for writing\n";
        return 1;
      }
      sink.write_json(file, write_options);
      out << "\nWrote " << sink.point_count() << " points ("
          << selected.size() << " experiments) to " << options.json_path
          << (controls.shard.active()
                  ? " (shard " + controls.shard.label() + ")"
                  : "")
          << "\n";
    }
  }

  if (!options.compare_path.empty()) {
    Trajectory current;
    current.smoke = options.smoke;
    current.base_seed = options.seed;
    current.has_timings = options.timings;
    current.experiments = sink.experiments();
    try {
      return run_compare(current, options);
    } catch (const std::exception& e) {
      std::cerr << "dqma_bench: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace dqma::sweep
