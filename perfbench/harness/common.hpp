// Shared plumbing of the benchmark harness: timing, order statistics, the
// result line, check bookkeeping, child processes and CPU pinning.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point from);

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
double median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
double percentile(std::vector<double> values, double p);

double sum(const std::vector<double>& values);

/// Median of the means of consecutive batches of `batch` values (a trailing
/// partial batch is dropped). Set-up times are reported this way: each
/// sample covers a batch of set-ups, so a single slow one moves it little.
double batch_median(const std::vector<double>& values, std::size_t batch);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the operation counts, the check verdict
/// and its metrics. End-to-end metrics are printed by timed runs, per-layer
/// metrics by traced runs.
struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Records one output check; a failing check prints `what` to stderr and
  /// makes the run incorrect.
  void check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}
/// with the end-to-end metrics (trace == false) or the per-layer ones.
void print_result(const Report& report, bool trace);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 15.0;
  bool trace = false;
  std::string bin_dir;   ///< holds dqma_serve and bench/dqma_bench
  std::string work_dir;  ///< scratch space for logs, sockets and outputs
};

/// Peak resident set (VmHWM) of a process in MiB; pid 0 means this one.
/// Returns 0 when /proc is unreadable.
double peak_rss_mb(pid_t pid = 0);

/// CPU sets the harness pins itself and its children to: the program under
/// test gets two CPUs of its own, the load generator and checks the rest.
/// Both fall back to "no pinning" on hosts with fewer than four CPUs.
std::vector<int> program_cpus();
std::vector<int> client_cpus();

/// Pins the calling thread (and threads it starts later) to `cpus`; a no-op
/// for an empty set.
void pin_current_thread(const std::vector<int>& cpus);

/// Starts `argv` with stdout and stderr redirected to the given files
/// (empty: /dev/null) and pinned to `cpus`. Throws on failure.
pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path, const std::vector<int>& cpus);

struct ChildExit {
  int status = -1;         ///< exit code, or -1 when killed by a signal
  double max_rss_mb = 0.0; ///< peak resident set of the child
};

/// Waits for `pid` and returns its exit code and peak RSS.
ChildExit wait_child(pid_t pid);

std::string read_file(const std::string& path);

}  // namespace perfbench
