// serve_throughput — drives the dqma_serve request engine (src/serve/)
// with a synthetic multi-workload request stream: the serve layer's byte
// gate.
//
// The recorded metrics hold only reproducible values: the request/ok
// counts, the shape-cache counters (single-flight, so misses == distinct
// shapes at any thread count), and an FNV-1a checksum over the
// concatenated response bytes — equal across the threads axis by the serve
// determinism contract, and the JSON document pins it. The burst's wall
// time is the point's wall_ms (--timings only), so req/s follows from it
// and `requests`. The stdout table also prints the burst's latency
// percentiles; they are not recorded. Throughput and latency under
// open-loop load are measured by perfbench's serve_mixed workload.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiments.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "sweep/registry.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dqma::bench {
namespace {

using Clock = std::chrono::steady_clock;
using util::Table;

/// The i-th request line of the synthetic stream: cycles the three builtin
/// workloads over a handful of shapes, so the stream exercises both cache
/// misses (first visit of a shape) and hits (every revisit). Seeds are the
/// index — fixed across runs, so the response bytes are fixed too.
std::string request_line(int i) {
  const int shape = (i / 3) % 2;  // two shape variants per workload
  switch (i % 3) {
    case 0:
      return "{\"workload\":\"auction_gt\",\"id\":\"q" + std::to_string(i) +
             "\",\"seed\":" + std::to_string(i) +
             ",\"params\":{\"n\":16,\"r\":" + std::to_string(2 + shape) +
             ",\"reps\":8,\"bid\":" + std::to_string(50000 + i) +
             ",\"reserve\":48000}}";
    case 1:
      return "{\"workload\":\"config_drift\",\"id\":\"q" + std::to_string(i) +
             "\",\"seed\":" + std::to_string(i) +
             ",\"params\":{\"n\":16,\"d\":2,\"drift\":" +
             std::to_string(1 + 2 * shape) +
             ",\"r\":2,\"reps\":6,\"samples\":30}}";
    default:
      return "{\"workload\":\"replicated_data_audit\",\"id\":\"q" +
             std::to_string(i) + "\",\"seed\":" + std::to_string(i) +
             ",\"params\":{\"n\":48,\"nodes\":" + std::to_string(6 + 2 * shape) +
             ",\"replicas\":3,\"reps\":4,\"tamper_bits\":" +
             std::to_string(i % 2) + "}}";
  }
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void run(sweep::ExperimentContext& ctx) {
  std::ostream& out = ctx.out();
  util::print_banner(
      out, "dqma_serve request engine throughput",
      "A fixed multi-workload request stream through serve::Server at 1\n"
      "thread vs the full --threads budget. Counts, cache counters and the\n"
      "response checksum are deterministic (and equal across the thread\n"
      "axis); the burst's wall time is the point's wall_ms (--timings).\n"
      "Latency percentiles are printed here only, for a fresh run.");

  serve::register_builtin_workloads();
  const int requests = ctx.smoke_select(96, 24);

  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    lines.push_back(request_line(i));
  }

  Table table({"threads", "requests", "ok", "cache miss", "req/s", "p50 ms",
               "p95 ms", "p99 ms"});
  // Each thread count is one unit, run serially (it owns a whole Server
  // with its own pool).
  for (const int threads_param : {1, 0}) {
    const std::vector<sweep::UnitRecord> records = {
        {"engine", sweep::ParamPoint()
                       .set("threads", threads_param)
                       .set("requests", requests)}};
    // Burst latency percentiles for the table; left unset when the unit is
    // resumed from a checkpoint log instead of run.
    std::vector<double> percentiles;
    const auto results = ctx.unit(records, [&](util::Rng&) {
      // threads 0 = the sweep pool's resolved --threads budget, so
      // `--threads 1` keeps even the "parallel" point serial.
      const int threads =
          threads_param == 0 ? ctx.pool().thread_count() : threads_param;
      serve::Server server(serve::ServerConfig{
          threads, static_cast<std::size_t>(requests) + 1});
      std::vector<std::string> responses(lines.size());
      std::vector<Clock::time_point> submitted(lines.size());
      std::vector<double> latency_ms(lines.size(), 0.0);

      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < lines.size(); ++i) {
        submitted[i] = Clock::now();
        server.submit(lines[i], [&, i](std::string response) {
          // Dispatcher-thread write; drain()'s lock hand-off orders it
          // before the reads below.
          responses[i] = std::move(response);
          latency_ms[i] = std::chrono::duration<double, std::milli>(
                              Clock::now() - submitted[i])
                              .count();
        });
      }
      server.drain();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      const serve::ServerStats stats = server.stats();

      std::string all_bytes;
      for (const std::string& response : responses) {
        all_bytes += response;
        all_bytes += '\n';
      }
      const auto checksum =
          static_cast<long long>(sweep::fnv1a64(all_bytes));

      std::vector<double> sorted = latency_ms;
      std::sort(sorted.begin(), sorted.end());
      percentiles = {percentile(sorted, 0.50), percentile(sorted, 0.95),
                     percentile(sorted, 0.99)};

      std::vector<sweep::JobResult> unit_results(records.size());
      unit_results[0].metrics
          .set("ok", static_cast<long long>(stats.ok))
          .set("failed", static_cast<long long>(stats.failed))
          .set("overloaded", static_cast<long long>(stats.overloaded))
          .set("cache_misses", static_cast<long long>(stats.cache.misses))
          .set("cache_hits", static_cast<long long>(stats.cache.hits))
          .set("response_checksum", checksum);
      unit_results[0].wall_ms = wall_ms;
      return unit_results;
    });
    if (results[0].skipped) continue;  // owned by another process
    const auto& m = results[0].metrics;
    const double wall_ms = results[0].wall_ms;
    std::vector<std::string> row = {
        Table::fmt(threads_param), Table::fmt(requests),
        Table::fmt(m.get_int("ok")), Table::fmt(m.get_int("cache_misses")),
        Table::fmt(wall_ms > 0.0
                       ? 1000.0 * static_cast<double>(requests) / wall_ms
                       : 0.0,
                   1)};
    for (std::size_t k = 0; k < 3; ++k) {
      row.push_back(percentiles.empty() ? "-" : Table::fmt(percentiles[k], 3));
    }
    table.add_row(std::move(row));
  }
  table.print(out);
}

}  // namespace

void register_serve_throughput() {
  sweep::register_experiment(
      {"serve_throughput",
       "dqma_serve engine: response bytes and cache counters of a fixed "
       "request burst (burst wall time via --timings)",
       run});
}

}  // namespace dqma::bench
