// perfbench_harness — one run of one benchmark workload.
//
//   perfbench_harness --workload <exact|serve_mixed|sweep_tables>
//                     --seed N --seconds S --trace 0|1
//                     --bin-dir DIR --work-dir DIR
//
// --bin-dir holds the dqma_serve and bench/dqma_bench binaries under test.
// A timed run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) runs the layer pass of every workload, whatever --workload
// names, and prints the per-layer metrics. The last stdout line is the
// JSON result; a run that cannot complete exits non-zero without one.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "linalg/simd.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.bin_dir.empty() && !options.work_dir.empty() &&
         options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    if (!parse(argc, argv, options)) {
      std::cerr << "usage: perfbench_harness --workload W --seed N --seconds S"
                   " --trace 0|1 --bin-dir DIR --work-dir DIR\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: bad argument: " << error.what() << "\n";
    return 2;
  }
  using Run = void (*)(const perfbench::Options&, perfbench::Report&);
  Run run = nullptr;
  if (options.workload == "exact") {
    run = perfbench::run_exact;
  } else if (options.workload == "serve_mixed") {
    run = perfbench::run_serve_mixed;
  } else if (options.workload == "sweep_tables") {
    run = perfbench::run_sweep_tables;
  } else {
    std::cerr << "perfbench_harness: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  // Pin the kernels' SIMD level so results do not depend on the host; the
  // spawned binaries read the same variable.
  setenv("DQMA_SIMD", "avx2", 1);
  options.work_dir += "/" + options.workload + "-" + std::to_string(getpid());
  perfbench::Report report;
  std::error_code ignored;  // removing the work directory is best effort
  try {
    dqma::linalg::simd::resolve_startup("avx2");
    std::filesystem::create_directories(options.work_dir);
    if (options.trace) {
      perfbench::trace_exact(options, report);
      perfbench::trace_serve_mixed(options, report);
      perfbench::trace_sweep_tables(options, report);
    } else {
      run(options, report);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << "\n";
    std::filesystem::remove_all(options.work_dir, ignored);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir, ignored);
  perfbench::print_result(report, options.trace);
  return 0;
}
