// The experiment registry behind the unified `dqma_bench` driver: every
// bench/ table harness registers itself here as a named experiment, and the
// driver runs them through cli_main.
//
// Seed namespacing: every experiment gets base seed
// derive_seed(global_seed, fnv1a64(name)), and every sweep within it
// derive_seed(experiment_seed, fnv1a64(series)). Seeds therefore depend
// only on (global seed, experiment name, series name, job index) — never
// on which experiments are selected, how many threads run, or the order
// sections execute — so `--experiment all` and `--experiment table2_eq`
// agree on every recorded value.
//
// Work units: every recorded point belongs to exactly one work unit — a
// 64-bit key, the records it emits and the seed it runs with. One private
// executor runs every unit (sweep, serial_sweep, unit and record alike)
// behind one ownership rule that decides whether this process runs,
// records and commits it: a monolithic run owns every unit, `--shard i/N`
// the units with key % N == i, and `--coordinate` the units it leases. A
// unit found in the checkpoint log is never recomputed, and its records
// are logged before the coordinator's done marker is written.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sweep/result_sink.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"

namespace dqma::sweep {

class Coordinator;
class ExperimentContext;

/// Shard/resume/coordination state shared by every experiment of one
/// driver run; nullptr members (and a default ShardSpec) mean the classic
/// monolithic run. `coordinator` set means an elastic worker
/// (--coordinate): units are leased at run time instead of partitioned
/// statically, and `checkpoint` points at the coordinator's own per-worker
/// log. shard stays inactive — the two partitioning modes are exclusive.
struct RunControls {
  ShardSpec shard;
  CheckpointLog* checkpoint = nullptr;
  Coordinator* coordinator = nullptr;
};

/// The derived point a kGroupBy reducer makes of one group.
struct DerivedPoint {
  ParamPoint params;
  Metrics metrics;
};

/// Reduces one group of a kGroupBy sweep: its member points and their
/// results, in point order.
using GroupReducer = std::function<DerivedPoint(
    const std::vector<ParamPoint>& points,
    const std::vector<JobResult>& results)>;

/// How a series maps onto work units. Every mode preserves per-job seeding
/// exactly; they differ only in which process EXECUTES and which RECORDS
/// each point.
struct SweepPolicy {
  enum class Mode {
    /// Each point is its own unit, keyed by its RNG seed
    /// derive_seed(series_seed, index). Processes that do not own the unit
    /// skip it entirely; its JobResult comes back `skipped` with empty
    /// metrics, so table-rendering loops must guard before reading. The
    /// default, and the right choice for every expensive self-contained
    /// series.
    kPartition,
    /// Every process executes all points but records only the ones it owns
    /// (same per-point keys). For cheap closed-form series whose results
    /// feed cross-point post-processing in the experiment body (ratio
    /// columns, derived ctx.record points): the body sees complete
    /// results everywhere, while each point still lands in exactly one
    /// document.
    kReplicate,
    /// Points sharing a value of `group_param` form one all-or-nothing unit
    /// (key = derive_seed(series_seed, fnv1a64(value))). With a reducer,
    /// the process owning a group also records its derived point in
    /// `derived_series`; derived points follow all of the sweep's points,
    /// in order of each group's first point.
    kGroupBy,
  };

  Mode mode = Mode::kPartition;
  std::string group_param;
  std::string derived_series;
  GroupReducer reduce;

  static SweepPolicy replicate() { return {Mode::kReplicate, {}, {}, {}}; }
  static SweepPolicy group_by(std::string param,
                              std::string derived_series = {},
                              GroupReducer reduce = nullptr) {
    return {Mode::kGroupBy, std::move(param), std::move(derived_series),
            std::move(reduce)};
  }
};

/// One record a multi-record unit emits: its series and parameters,
/// declared before the unit runs.
struct UnitRecord {
  std::string series;
  ParamPoint params;
};

/// Computes every record of a multi-record unit, in declaration order,
/// each with its metrics and wall time.
using UnitFn = std::function<std::vector<JobResult>(util::Rng&)>;

/// A registered experiment: a stable name (used in CLI selection, JSON and
/// seed derivation), a one-line description, and the body.
struct Experiment {
  std::string name;
  std::string description;
  std::function<void(ExperimentContext&)> run;
};

/// Registers an experiment. Duplicate names are rejected.
void register_experiment(Experiment experiment);

/// All registered experiments, in registration order.
const std::vector<Experiment>& experiments();

/// Everything an experiment body needs: the smoke switch, the shared
/// thread pool, the output stream for ASCII tables, and recording into the
/// sink through work units.
class ExperimentContext {
 public:
  ExperimentContext(const Experiment& experiment, ThreadPool& pool,
                    ResultSink& sink, std::ostream& out, bool smoke,
                    std::uint64_t global_seed,
                    const RunControls* controls = nullptr);

  bool smoke() const { return smoke_; }
  ThreadPool& pool() { return pool_; }
  std::ostream& out() { return out_; }
  std::uint64_t base_seed() const { return base_seed_; }

  /// smoke() ? smoke_variant : full — mirrors util::smoke_select but keyed
  /// off the driver's --smoke flag.
  template <typename T>
  T smoke_select(T full, T smoke_variant) const {
    return smoke_ ? smoke_variant : full;
  }

  /// Runs fn over the points on the pool (deterministic per-job seeding
  /// namespaced by `series`), records every owned point into the sink with
  /// the series name prepended to its params, and returns the ordered
  /// results for ASCII rendering. `policy` decides how points form units
  /// (see SweepPolicy). With a group reducer, the returned vector carries
  /// one more entry per group after the points: its derived point.
  std::vector<JobResult> sweep(const std::string& series,
                               const std::vector<ParamPoint>& points,
                               const JobFn& fn,
                               const SweepPolicy& policy = {});
  std::vector<JobResult> sweep(const std::string& series,
                               const ParamGrid& grid, const JobFn& fn,
                               const SweepPolicy& policy = {});

  /// sweep()'s counterpart for series with a few huge points: runs fn over
  /// the points SERIALLY on the calling thread — outside the sweep pool,
  /// so the threaded kernels inside fn fan out across the kernel pool
  /// instead of being serialized by the nesting contract. Units, seeding,
  /// wall timing, recording and result order match sweep() exactly.
  std::vector<JobResult> serial_sweep(const std::string& series,
                                      const std::vector<ParamPoint>& points,
                                      const JobFn& fn);

  /// One multi-record unit, run serially on the calling thread: fn
  /// computes all `records` together (say, a timed point and the stats
  /// derived from its timing). The unit is keyed and seeded by its first
  /// record, derive_seed(series_seed, index) with the index record() would
  /// give that record; every record takes the index and canonical order
  /// record() would give it. Returns one result per record, all `skipped`
  /// when another process owns the unit.
  std::vector<JobResult> unit(const std::vector<UnitRecord>& records,
                              const UnitFn& fn);

  /// Records one point computed inline (wall time optional); every process
  /// computes it, and the one owning its key
  /// derive_seed(series_seed, per-series record index) records it. Correct
  /// for closed forms and replicated post-processing only; anything a
  /// process may skip computing belongs in a unit.
  void record(const std::string& series, ParamPoint params, Metrics metrics,
              double wall_ms = 0.0);

 private:
  struct Plan;
  /// The one work-unit executor behind sweep, serial_sweep, unit and
  /// record. `results` holds one slot per plan record, prefilled for
  /// records whose values are already at hand.
  void execute(const Plan& plan, std::vector<JobResult>& results);
  std::vector<JobResult> run_series(const std::string& series,
                                    const std::vector<ParamPoint>& points,
                                    const JobFn& fn,
                                    const SweepPolicy& policy, bool serial);
  /// The record()-style key of the next record of `series`; advances the
  /// per-series record index.
  std::uint64_t next_record_key(const std::string& series);

  std::string name_;
  ThreadPool& pool_;
  ResultSink& sink_;
  std::ostream& out_;
  bool smoke_;
  std::uint64_t base_seed_;
  const RunControls* controls_;
  /// Position the NEXT recorded point would take in the canonical
  /// (unsharded) run of this experiment. Advances for every declared
  /// point — executed, resumed, or owned elsewhere — so orders agree
  /// across all processes of a run.
  std::size_t next_order_ = 0;
  /// Per-series record indices (keys of record() and unit() records).
  std::map<std::string, std::uint64_t> record_counts_;
};

/// Options parsed from the dqma_bench command line.
struct CliOptions {
  std::vector<std::string> experiments;  ///< empty => all
  std::string json_path;                 ///< empty => no JSON output
  int threads = 0;                       ///< 0 => hardware concurrency
  bool smoke = false;
  bool timings = false;
  std::uint64_t seed = 0;
  bool list_only = false;
  std::string shard;                      ///< "i/N"; empty => unsharded
  std::string resume_path;                ///< JSONL checkpoint log
  std::vector<std::string> merge_inputs;  ///< --merge mode when non-empty
  std::string compare_path;               ///< baseline document
  double tolerance = 1e-9;                ///< --compare floating tolerance
  std::string simd;  ///< SIMD level override; empty => DQMA_SIMD / native
  std::string coordinate_dir;  ///< elastic mode when non-empty
  std::string worker_id;       ///< --worker; empty => generated
  int lease_timeout_ms = 60000;  ///< --lease-timeout
};

/// Driver main: parses argv, runs the selected experiments, writes JSON
/// when requested, prints a per-experiment wall-time summary. Returns a
/// process exit code (2 for a bad command line).
int cli_main(int argc, const char* const* argv);

}  // namespace dqma::sweep
