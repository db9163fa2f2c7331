// The three workloads. Each run_* function performs one timed run (setup,
// timed work, output checks) and fills the end-to-end metrics; each trace_*
// function performs its layer pass and fills per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_exact(const Options& options, Report& report);
void run_serve_mixed(const Options& options, Report& report);
void run_sweep_tables(const Options& options, Report& report);

void trace_exact(const Options& options, Report& report);
void trace_serve_mixed(const Options& options, Report& report);
void trace_sweep_tables(const Options& options, Report& report);

}  // namespace perfbench
