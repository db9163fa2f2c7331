// Crash-tolerant elastic sweeps (sweep/coordinator.hpp and the dqma_bench
// --coordinate glue): lease lifecycle, torn-marker and stale-worker
// reclaim, eviction fencing, the ordered-trust convergence rule, and the
// end-to-end gate — any worker count, any kill schedule, the merge of all
// finalized workers is byte-identical to the monolithic run.
//
// Worker processes are spawned by re-exec'ing THIS binary with
// --worker-main (fork+execve immediately, safe despite the kernel-pool
// threads an in-process cli_main run leaves behind), so crash injection
// via DQMA_FAULT kills a real process mid-protocol exactly like a lost
// host would.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/coordinator.hpp"
#include "sweep/registry.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using dqma::sweep::Coordinator;
using dqma::sweep::DerivedPoint;
using dqma::sweep::JobResult;
using dqma::sweep::Metrics;
using dqma::sweep::ParamGrid;
using dqma::sweep::ParamPoint;
using dqma::sweep::SweepPolicy;
using dqma::sweep::WorkerEvicted;
using dqma::util::Rng;
using Claim = Coordinator::Claim;

/// Small registry covering every work-unit shape the coordinator must
/// partition: partitioned/replicated/grouped sweeps with a reducer,
/// serial_sweep, multi-record units and ad-hoc records.
void register_fake_experiments() {
  static const bool once = [] {
    dqma::sweep::register_experiment(
        {"elastic_alpha", "partitioned + replicated series",
         [](dqma::sweep::ExperimentContext& ctx) {
           ParamGrid grid;
           grid.axis("x", std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7});
           const auto results = ctx.sweep(
               "grid", grid.enumerate(), [](const ParamPoint& p, Rng& rng) {
                 return Metrics()
                     .set("value", static_cast<double>(p.get_int("x")) +
                                       rng.next_double())
                     .set("draws",
                          static_cast<long long>(rng.next_below(1000)));
               });
           (void)results;

           ParamGrid cheap;
           cheap.axis("n", std::vector<int>{8, 16, 32});
           const auto cheap_points = cheap.enumerate();
           const auto cheap_results = ctx.sweep(
               "cheap", cheap_points,
               [](const ParamPoint& p, Rng&) {
                 return Metrics().set("cost", 3 * p.get_int("n"));
               },
               SweepPolicy::replicate());
           const double base =
               static_cast<double>(cheap_results[0].metrics.get_int("cost"));
           for (std::size_t i = 0; i < cheap_points.size(); ++i) {
             ctx.record(
                 "cheap_ratio",
                 ParamPoint().set("n", cheap_points[i].get_int("n")),
                 Metrics().set(
                     "ratio",
                     static_cast<double>(
                         cheap_results[i].metrics.get_int("cost")) /
                         base));
           }

           for (int pair = 0; pair < 2; ++pair) {
             ctx.unit({{"inline", ParamPoint().set("i", 2 * pair)},
                       {"inline", ParamPoint().set("i", 2 * pair + 1)},
                       {"inline_stat", ParamPoint().set("pair", pair)}},
                      [](Rng& rng) {
                        std::vector<JobResult> out(3);
                        for (std::size_t k = 0; k < 2; ++k) {
                          Rng copy = rng;
                          out[k].metrics.set("draw",
                                             copy.next_double() +
                                                 static_cast<double>(k));
                        }
                        out[2].metrics.set(
                            "sum", out[0].metrics.get_double("draw") +
                                       out[1].metrics.get_double("draw"));
                        return out;
                      });
           }
         }});

    dqma::sweep::register_experiment(
        {"elastic_beta", "grouped series + reducer, serial_sweep",
         [](dqma::sweep::ExperimentContext& ctx) {
           std::vector<ParamPoint> points;
           for (int cfg = 0; cfg < 3; ++cfg) {
             for (int chunk = 0; chunk < 3; ++chunk) {
               points.push_back(
                   ParamPoint().set("cfg", cfg).set("chunk", chunk));
             }
           }
           ctx.sweep(
               "chunks", points,
               [](const ParamPoint& p, Rng& rng) {
                 return Metrics().set(
                     "mean", 0.1 * static_cast<double>(p.get_int("cfg")) +
                                 0.01 * rng.next_double());
               },
               SweepPolicy::group_by(
                   "cfg", "combined",
                   [](const std::vector<ParamPoint>& group,
                      const std::vector<JobResult>& group_results) {
                     double sum = 0.0;
                     for (const JobResult& result : group_results) {
                       sum += result.metrics.get_double("mean");
                     }
                     return DerivedPoint{
                         ParamPoint().set("cfg", group[0].get_int("cfg")),
                         Metrics().set("mean", sum / 3.0)};
                   }));

           std::vector<ParamPoint> serial_points;
           serial_points.push_back(ParamPoint().set("d", 4));
           serial_points.push_back(ParamPoint().set("d", 6));
           ctx.serial_sweep("serial", serial_points,
                            [](const ParamPoint& p, Rng& rng) {
                              return Metrics().set(
                                  "v", p.get_int("d") + rng.next_double());
                            });
         }});
    return true;
  }();
  (void)once;
}

int run_cli(const std::vector<std::string>& args) {
  register_fake_experiments();
  std::vector<const char*> argv{"dqma_bench"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return dqma::sweep::cli_main(static_cast<int>(argv.size()), argv.data());
}

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) {
    throw std::runtime_error("readlink /proc/self/exe failed");
  }
  return std::string(buffer, static_cast<std::size_t>(n));
}

/// Spawns this binary as a worker process (`--worker-main <cli args...>`)
/// with DQMA_FAULT=`fault` in its environment; returns the pid.
pid_t spawn_worker(const std::vector<std::string>& args,
                   const std::string& fault = "") {
  static const std::string exe = self_exe();
  std::vector<std::string> store{exe, "--worker-main"};
  store.insert(store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(store.size() + 1);
  for (std::string& arg : store) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  std::vector<std::string> env_store;
  for (char** e = ::environ; *e != nullptr; ++e) {
    if (std::string(*e).rfind("DQMA_FAULT=", 0) != 0) {
      env_store.emplace_back(*e);
    }
  }
  if (!fault.empty()) {
    env_store.push_back("DQMA_FAULT=" + fault);
  }
  std::vector<char*> envp;
  envp.reserve(env_store.size() + 1);
  for (std::string& e : env_store) {
    envp.push_back(e.data());
  }
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe work between fork and exec: the parent holds
    // kernel-pool threads, so any allocation here could deadlock.
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  return -WTERMSIG(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  fs::remove_all(dir);
  return dir;
}

Coordinator::Options worker_options(const std::string& dir,
                                    const std::string& worker,
                                    int timeout_ms = 60000) {
  Coordinator::Options options;
  options.dir = dir;
  options.worker = worker;
  options.base_seed = 0;
  options.smoke = true;
  options.lease_timeout_ms = timeout_ms;
  return options;
}

std::string key_hex(std::uint64_t key) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[key & 0xFu];
    key >>= 4;
  }
  return out;
}

/// Back-dates a worker's heartbeat (its checkpoint log mtime) so liveness
/// classification sees it as long dead.
void age_heartbeat(const std::string& dir, const std::string& worker) {
  fs::last_write_time(dir + "/workers/" + worker + ".jsonl",
                      fs::file_time_type::clock::now() -
                          std::chrono::minutes(10));
}

TEST(CoordinatorProtocolTest, LeaseLifecycleAcrossWorkers) {
  const std::string dir = fresh_dir("coord_lifecycle");
  Coordinator a(worker_options(dir, "a"));
  Coordinator b(worker_options(dir, "b"));

  a.begin_pass();
  b.begin_pass();
  EXPECT_EQ(a.acquire(42), Claim::kAcquired);
  EXPECT_EQ(a.acquire(42), Claim::kAcquired);  // re-acquire is idempotent
  EXPECT_EQ(b.acquire(42), Claim::kBusy);      // live lease holder
  EXPECT_FALSE(b.pass_converged());

  a.complete(42);
  // Done by a live but unfinalized SMALLER id: b must keep waiting (the
  // ordered-trust rule), a's own view stays converged.
  b.begin_pass();
  EXPECT_EQ(b.acquire(42), Claim::kDone);
  EXPECT_FALSE(b.pass_converged());
  a.begin_pass();
  EXPECT_EQ(a.acquire(42), Claim::kAcquired);  // done by me: recommittable
  EXPECT_TRUE(a.pass_converged());

  a.finalize();
  b.begin_pass();
  EXPECT_EQ(b.acquire(42), Claim::kDone);  // done by a finalized worker
  EXPECT_TRUE(b.pass_converged());
}

TEST(CoordinatorProtocolTest, TrustsLiveLargerIdsSoSmallestConverges) {
  const std::string dir = fresh_dir("coord_trust");
  Coordinator a(worker_options(dir, "a"));
  Coordinator b(worker_options(dir, "b"));

  b.begin_pass();
  EXPECT_EQ(b.acquire(7), Claim::kAcquired);
  b.complete(7);

  // a trusts the live larger id b: resolved, so a can finalize first even
  // though b has not — the asymmetry that breaks the mutual wait.
  a.begin_pass();
  EXPECT_EQ(a.acquire(7), Claim::kDone);
  EXPECT_TRUE(a.pass_converged());
}

TEST(CoordinatorProtocolTest, TornLeaseFileIsReclaimed) {
  const std::string dir = fresh_dir("coord_torn");
  Coordinator a(worker_options(dir, "a"));
  {
    std::ofstream torn(dir + "/leases/" + key_hex(99) + ".json",
                       std::ios::binary);
    torn << "{\"key\":99,\"wor";  // crash mid-write
  }
  a.begin_pass();
  EXPECT_EQ(a.acquire(99), Claim::kAcquired);
  EXPECT_EQ(a.stats().reclaims, 1);
}

TEST(CoordinatorProtocolTest, StaleWorkerIsEvictedAndFenced) {
  const std::string dir = fresh_dir("coord_stale");
  Coordinator a(worker_options(dir, "a"));
  Coordinator b(worker_options(dir, "b"));

  EXPECT_EQ(a.acquire(5), Claim::kAcquired);
  a.complete(5);
  EXPECT_EQ(a.acquire(6), Claim::kAcquired);  // still leased at "death"
  a.stop_heartbeat();
  age_heartbeat(dir, "a");

  // b reclaims both the done marker and the lease of the dead worker.
  b.begin_pass();
  EXPECT_EQ(b.acquire(5), Claim::kAcquired);
  EXPECT_EQ(b.acquire(6), Claim::kAcquired);
  EXPECT_EQ(b.stats().reclaims, 2);
  EXPECT_EQ(b.stats().evictions, 1);  // one tombstone, not one per marker
  EXPECT_TRUE(fs::exists(dir + "/workers/a.evicted"));

  // The zombie is fenced: every protocol step throws, and the worker id
  // cannot rejoin.
  EXPECT_THROW(a.complete(6), WorkerEvicted);
  EXPECT_THROW(a.acquire(7), WorkerEvicted);
  EXPECT_THROW(a.finalize(), WorkerEvicted);
  EXPECT_THROW(Coordinator c(worker_options(dir, "a")),
               std::invalid_argument);
}

TEST(CoordinatorProtocolTest, FinalizedMarkersSurviveStaleness) {
  const std::string dir = fresh_dir("coord_final");
  {
    Coordinator a(worker_options(dir, "a"));
    EXPECT_EQ(a.acquire(11), Claim::kAcquired);
    a.complete(11);
    a.finalize();
  }
  age_heartbeat(dir, "a");
  Coordinator b(worker_options(dir, "b"));
  b.begin_pass();
  EXPECT_EQ(b.acquire(11), Claim::kDone);  // permanent: never reclaimed
  EXPECT_EQ(b.stats().reclaims, 0);
  EXPECT_TRUE(b.pass_converged());
}

TEST(CoordinatorProtocolTest, BackoffIsDeterministicPerWorkerAndBounded) {
  const std::string dir = fresh_dir("coord_backoff");
  std::vector<long long> first;
  {
    Coordinator a(worker_options(dir, "a", 60000));
    for (int round = 0; round < 8; ++round) {
      const auto delay = a.backoff_delay(round);
      EXPECT_GE(delay.count(), 12);
      EXPECT_LE(delay.count(), 5000);  // capped despite the 60 s timeout
      first.push_back(delay.count());
    }
  }
  Coordinator again(worker_options(dir, "a", 60000));
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(again.backoff_delay(round).count(), first[static_cast<std::size_t>(round)])
        << "round " << round;
  }
}

TEST(CoordinatorCliTest, RejectsConflictingAndIncompleteFlags) {
  const std::string dir = fresh_dir("coord_flags");
  EXPECT_EQ(run_cli({"--coordinate", dir}), 2);  // no --json
  EXPECT_EQ(run_cli({"--coordinate", dir, "--json", "-"}), 2);
  EXPECT_EQ(run_cli({"--coordinate", dir, "--json", temp_path("x.json"),
                     "--shard", "0/2"}),
            2);
  EXPECT_EQ(run_cli({"--coordinate", dir, "--json", temp_path("x.json"),
                     "--resume", temp_path("x.jsonl")}),
            2);
  EXPECT_EQ(run_cli({"--worker", "w0", "--json", temp_path("x.json")}), 2);
  EXPECT_EQ(run_cli({"--coordinate", dir, "--json", temp_path("x.json"),
                     "--lease-timeout", "0"}),
            2);
  EXPECT_EQ(run_cli({"--coordinate", dir, "--json", temp_path("x.json"),
                     "--worker", "a/b"}),
            2);
}

TEST(CoordinatorEndToEndTest, SequentialWorkersMergeByteIdentical) {
  const std::string mono = temp_path("coord_seq_mono.json");
  ASSERT_EQ(run_cli({"--smoke", "--json", mono}), 0);

  const std::string dir = fresh_dir("coord_seq");
  const std::string w0 = temp_path("coord_seq_w0.json");
  const std::string w1 = temp_path("coord_seq_w1.json");
  ASSERT_EQ(run_cli({"--smoke", "--coordinate", dir, "--worker", "w0",
                     "--json", w0}),
            0);
  // The late worker finds everything finalized, records nothing, and its
  // (empty) document still merges cleanly.
  ASSERT_EQ(run_cli({"--smoke", "--coordinate", dir, "--worker", "w1",
                     "--json", w1}),
            0);
  EXPECT_TRUE(fs::exists(dir + "/workers/w0.final"));
  EXPECT_TRUE(fs::exists(dir + "/workers/w1.final"));

  const std::string merged = temp_path("coord_seq_merged.json");
  ASSERT_EQ(run_cli({"--merge", w0, w1, "--json", merged}), 0);
  EXPECT_EQ(read_file(merged), read_file(mono));

  // A worker's partial document is not comparable before merging.
  EXPECT_EQ(run_cli({"--merge", merged, "--compare", w0}), 1);
}

/// The key record() gives point `index` of `series` at global seed 0.
std::uint64_t inline_record_key(const std::string& experiment,
                                const std::string& series,
                                std::uint64_t index) {
  using dqma::sweep::fnv1a64;
  using dqma::util::derive_seed;
  return derive_seed(
      derive_seed(derive_seed(0, fnv1a64(experiment)), fnv1a64(series)),
      index);
}

TEST(CoordinatorEndToEndTest, DoneMarkersFollowLogLines) {
  // Crash ordering: a unit's records are logged before its done marker.
  // Only record() points, computed inline by every worker, commit without
  // a log line.
  const std::string dir = fresh_dir("coord_markers");
  ASSERT_EQ(run_cli({"--smoke", "--coordinate", dir, "--worker", "w0",
                     "--json", temp_path("coord_markers_w0.json")}),
            0);
  std::set<std::uint64_t> logged;
  {
    std::istringstream log(read_file(dir + "/workers/w0.jsonl"));
    std::string line;
    std::getline(log, line);  // header
    while (std::getline(log, line)) {
      logged.insert(dqma::util::json::parse(line).at("key").as_uint());
    }
  }
  std::set<std::uint64_t> inline_keys;
  for (std::uint64_t i = 0; i < 3; ++i) {
    inline_keys.insert(inline_record_key("elastic_alpha", "cheap_ratio", i));
  }
  std::size_t markers = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/done")) {
    ++markers;
    const std::uint64_t key =
        dqma::util::json::parse(read_file(entry.path().string()))
            .at("key")
            .as_uint();
    if (inline_keys.count(key) == 0) {
      EXPECT_EQ(logged.count(key), 1u)
          << "done marker " << entry.path() << " has no log line";
    }
  }
  // 8 grid + 3 cheap + 2 multi-record + 3 grouped + 2 serial units, plus
  // the 3 inline records.
  EXPECT_EQ(markers, 21u);
}

TEST(CoordinatorEndToEndTest, ThreeConcurrentWorkersMergeByteIdentical) {
  const std::string mono = temp_path("coord_con_mono.json");
  ASSERT_EQ(run_cli({"--smoke", "--json", mono}), 0);

  const std::string dir = fresh_dir("coord_con");
  std::vector<pid_t> pids;
  std::vector<std::string> docs;
  for (const char* w : {"wa", "wb", "wc"}) {
    docs.push_back(temp_path(std::string("coord_con_") + w + ".json"));
    pids.push_back(spawn_worker({"--smoke", "--coordinate", dir, "--worker",
                                 w, "--lease-timeout", "10000", "--json",
                                 docs.back()}));
  }
  for (const pid_t pid : pids) {
    EXPECT_EQ(wait_exit(pid), 0);
  }

  const std::string merged = temp_path("coord_con_merged.json");
  ASSERT_EQ(run_cli({"--merge", docs[0], docs[1], docs[2], "--json",
                     merged}),
            0);
  EXPECT_EQ(read_file(merged), read_file(mono));
}

TEST(CoordinatorEndToEndTest, CrashedWorkerIsRecoveredByteIdentically) {
  const std::string mono = temp_path("coord_crash_mono.json");
  ASSERT_EQ(run_cli({"--smoke", "--json", mono}), 0);

  const std::string dir = fresh_dir("coord_crash");
  const std::string crash_doc = temp_path("coord_crash_w.json");
  const std::string rescue_doc = temp_path("coord_crash_r.json");

  // The crash worker dies at its 6th lease-protocol step (exit 137, a real
  // process kill), leaving committed units, a held lease, and a stale
  // heartbeat behind.
  const pid_t crash = spawn_worker(
      {"--smoke", "--coordinate", dir, "--worker", "a-crash",
       "--lease-timeout", "1500", "--json", crash_doc},
      "lease:crash_after:6");
  EXPECT_EQ(wait_exit(crash), 137);
  EXPECT_FALSE(fs::exists(crash_doc));
  EXPECT_FALSE(fs::exists(dir + "/workers/a-crash.final"));

  // The rescue worker id sorts AFTER the crashed one, so it cannot
  // converge while the crash worker's commits are unfinalized: it waits
  // out the lease timeout, evicts, reclaims, and recomputes.
  const pid_t rescue = spawn_worker({"--smoke", "--coordinate", dir,
                                     "--worker", "z-rescue",
                                     "--lease-timeout", "1500", "--json",
                                     rescue_doc});
  EXPECT_EQ(wait_exit(rescue), 0);
  EXPECT_TRUE(fs::exists(dir + "/workers/a-crash.evicted"));

  const std::string merged = temp_path("coord_crash_merged.json");
  ASSERT_EQ(run_cli({"--merge", rescue_doc, "--json", merged}), 0);
  EXPECT_EQ(read_file(merged), read_file(mono));
}

TEST(CoordinatorEndToEndTest, DoubleCrashWithTornMarkerStillRecovers) {
  const std::string mono = temp_path("coord_dbl_mono.json");
  ASSERT_EQ(run_cli({"--smoke", "--json", mono}), 0);

  const std::string dir = fresh_dir("coord_dbl");
  const pid_t crash1 = spawn_worker(
      {"--smoke", "--coordinate", dir, "--worker", "a-crash1",
       "--lease-timeout", "1500", "--json", temp_path("coord_dbl_1.json")},
      "lease:crash_after:4");
  EXPECT_EQ(wait_exit(crash1), 137);

  // The second casualty dies mid-write, leaving a TORN marker file.
  const pid_t crash2 = spawn_worker(
      {"--smoke", "--coordinate", dir, "--worker", "b-crash2",
       "--lease-timeout", "1500", "--json", temp_path("coord_dbl_2.json")},
      "lease:torn_write");
  EXPECT_EQ(wait_exit(crash2), 137);

  const std::string rescue_doc = temp_path("coord_dbl_r.json");
  const pid_t rescue = spawn_worker({"--smoke", "--coordinate", dir,
                                     "--worker", "z-rescue",
                                     "--lease-timeout", "1500", "--json",
                                     rescue_doc});
  EXPECT_EQ(wait_exit(rescue), 0);

  const std::string merged = temp_path("coord_dbl_merged.json");
  ASSERT_EQ(run_cli({"--merge", rescue_doc, "--json", merged}), 0);
  EXPECT_EQ(read_file(merged), read_file(mono));
}

TEST(CoordinatorEndToEndTest, RestartedWorkerResumesFromItsOwnLog) {
  const std::string mono = temp_path("coord_resume_mono.json");
  ASSERT_EQ(run_cli({"--smoke", "--json", mono}), 0);

  const std::string dir = fresh_dir("coord_resume");
  const std::string doc = temp_path("coord_resume_w.json");
  const pid_t crash = spawn_worker({"--smoke", "--coordinate", dir,
                                    "--worker", "w0", "--json", doc},
                                   "lease:crash_after:10");
  EXPECT_EQ(wait_exit(crash), 137);
  const auto log_size = fs::file_size(dir + "/workers/w0.jsonl");
  EXPECT_GT(log_size, 0u);

  // Same id, not yet evicted: the restart replays its own checkpoint log
  // (committed units come back as cache hits, not recomputations).
  ASSERT_EQ(run_cli({"--smoke", "--coordinate", dir, "--worker", "w0",
                     "--json", doc}),
            0);
  const std::string merged = temp_path("coord_resume_merged.json");
  ASSERT_EQ(run_cli({"--merge", doc, "--json", merged}), 0);
  EXPECT_EQ(read_file(merged), read_file(mono));
}

}  // namespace

/// --worker-main <cli args...>: run this binary as a dqma_bench worker
/// over the fake registry (the subprocess side of spawn_worker).
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--worker-main") {
    register_fake_experiments();
    std::vector<const char*> args{"dqma_bench"};
    for (int i = 2; i < argc; ++i) {
      args.push_back(argv[i]);
    }
    return dqma::sweep::cli_main(static_cast<int>(args.size()), args.data());
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
