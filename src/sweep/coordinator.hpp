// Elastic work distribution: a dependency-free, file-lock-based coordinator
// over a shared directory (`dqma_bench --coordinate DIR`).
//
// Static `--shard i/N` finishes at the pace of the slowest shard, and a
// lost runner needs a manual resume. The coordinator replaces the fixed
// partition with leases: every work unit (sweep/registry.hpp) is
// identified by the same 64-bit key sharding uses —
// derive_seed(series_seed, index) for a point, derive_seed(series_seed,
// fnv1a64(group value)) for a kGroupBy group, its first record's key for a
// multi-record unit — and any worker process may lease any free unit.
// Leases decide only WHO runs a unit, never its seed, so the merged
// document is byte-identical to the monolithic run at any worker count and
// under any kill schedule.
//
// Directory protocol (no daemon, no network; any shared filesystem works):
//
//   DIR/coord.lock            flock(2) serializing every protocol step
//   DIR/leases/<key>.json     {"key":K,"worker":W} — W is computing K
//   DIR/done/<key>.json       {"key":K,"worker":W} — W committed K
//   DIR/workers/<W>.jsonl     W's CheckpointLog; its mtime is W's heartbeat
//   DIR/workers/<W>.final     W wrote its result document; its done
//                             markers are permanently valid
//   DIR/workers/<W>.evicted   tombstone: W was declared dead; if W is in
//                             fact alive it must abort (fencing)
//
// Liveness: a worker heartbeats by touching its checkpoint log (a
// background thread plus every protocol step). A worker whose log mtime is
// older than the lease timeout is stale: its leases AND its not-yet-final
// done markers are reclaimed — determinism makes recomputation
// byte-identical — after writing the eviction tombstone under the global
// lock. Every protocol step first checks the caller's own tombstone, so a
// zombie that was wrongly declared dead aborts (WorkerEvicted) before it
// can record anything twice; its partial results are discarded because its
// document is never written and only `.final` workers feed the merge.
//
// Crash ordering: a worker appends every record of a unit to its own
// checkpoint log (fsync) BEFORE writing the unit's done marker, so a done
// unit is always recoverable from the log. The one exception is a
// record() point: every worker computes it inline, so its done marker
// (commit_ready) has no log line to recover. Torn lease/done files (crash
// mid-write) parse as garbage and are reclaimed like stale ones.
//
// Contention backoff is jittered exponential, with jitter drawn from a
// seed-derived stream (base_seed, worker id), so delays are reproducible
// per worker.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "sweep/shard.hpp"
#include "util/rng.hpp"

namespace dqma::sweep {

/// Thrown by any protocol step after this worker's eviction tombstone
/// appears: another worker declared this one dead and may be recomputing
/// its units. The only safe response is to abort the run without writing a
/// result document (cli_main exits with code 3).
class WorkerEvicted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Coordinator {
 public:
  enum class Claim {
    kAcquired,  ///< this worker owns the unit (lease taken, or committed)
    kDone,      ///< committed by a live or finalized other worker — skip
    kBusy,      ///< leased by a live other worker — unresolved this pass
  };

  struct Options {
    std::string dir;
    std::string worker;
    std::uint64_t base_seed = 0;
    bool smoke = false;
    int lease_timeout_ms = 60000;
  };

  struct Stats {
    long long acquired = 0;        ///< units leased for computation
    long long cached = 0;          ///< units committed without a lease
    long long done_elsewhere = 0;  ///< units another worker committed
    long long busy = 0;            ///< lease contention events
    long long reclaims = 0;        ///< stale/torn leases or markers taken
    long long evictions = 0;       ///< workers tombstoned by this worker
    long long passes = 0;
  };

  /// Creates the directory protocol (idempotent), opens this worker's
  /// checkpoint log, and starts the heartbeat thread. Throws when the
  /// worker id carries an eviction tombstone — a resurrected worker whose
  /// units were reclaimed must rejoin under a fresh id.
  explicit Coordinator(const Options& options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Leases unit `key` for computation. kAcquired also when this worker
  /// already holds the lease or already committed the unit (recomputation
  /// is byte-identical, so re-execution after a lost log line is safe).
  Claim acquire(std::uint64_t key);

  /// Commits an acquired unit: done marker written, lease released. Call
  /// AFTER the unit's results are appended to the checkpoint log.
  void complete(std::uint64_t key);

  /// Commits a unit whose results this worker already holds (checkpoint
  /// cache hit, or a value every worker computes inline): kAcquired means
  /// "record it in this pass's document". No lease is taken — free units
  /// commit immediately.
  Claim commit_ready(std::uint64_t key);

  /// Marks the start of an execution pass. Workers loop passes until
  /// pass_converged(): a pass proved every unit is committed by this
  /// worker, a finalized worker, or a live worker this one trusts. Trust
  /// is totally ordered by worker id (live peers with a larger id are
  /// trusted, smaller ones are waited on until they finalize or go
  /// stale), so the smallest unfinalized worker always converges first
  /// and two finished workers never wait on each other.
  void begin_pass();
  bool pass_converged() const {
    return unresolved_.load(std::memory_order_acquire) == 0;
  }

  /// Sleeps the jittered exponential backoff for the next contention
  /// round. The delay sequence is deterministic per (base_seed, worker).
  void backoff_sleep();
  /// The delay for backoff round `round` (test/bench hook; consumes the
  /// same jitter stream backoff_sleep uses).
  std::chrono::milliseconds backoff_delay(int round);

  /// Declares this worker's result document written: its done markers
  /// become permanently valid and its units can never be reclaimed. Call
  /// after the document is on disk; only `.final` workers' documents may
  /// feed --merge. Throws WorkerEvicted when the tombstone appeared first
  /// (the caller deletes the document it just wrote and exits nonzero).
  void finalize();

  CheckpointLog& log() { return *log_; }
  const std::string& worker() const { return options_.worker; }
  Stats stats() const;

  /// Stops the heartbeat thread without finalizing (test hook: simulates a
  /// worker that stops heartbeating but still tries to commit — the
  /// fencing path). A real crash needs no call at all.
  void stop_heartbeat();

 private:
  enum class Owner { kMe, kLive, kFinal, kStale, kNone, kTorn };

  struct LockGuard;

  std::string lease_path(std::uint64_t key) const;
  std::string done_path(std::uint64_t key) const;
  std::string worker_file(const std::string& worker,
                          const char* suffix) const;

  /// Classifies the owner named by marker file `path` ({kNone,kTorn} when
  /// missing/unparseable). Callers hold the lock.
  Owner read_owner_locked(const std::string& path, std::string* owner) const;
  /// Liveness of `worker` (never called for this worker itself).
  Owner classify_locked(const std::string& worker) const;
  /// Tombstones `worker` unless it finalized first. True when evicted.
  bool evict_locked(const std::string& worker);
  /// Throws WorkerEvicted when this worker's tombstone exists.
  void fence_locked() const;
  /// Writes a {key, worker} marker file (lease or done), honoring
  /// torn-write fault injection.
  void write_marker_locked(const std::string& path, std::uint64_t key) const;
  /// Touches the checkpoint log mtime (the heartbeat).
  void touch_heartbeat() const;
  /// The shared resolution behind acquire()/commit_ready().
  Claim resolve(std::uint64_t key, bool commit_now);

  Options options_;
  std::unique_ptr<CheckpointLog> log_;
  int lock_fd_ = -1;
  mutable std::mutex mutex_;       ///< intra-process; flock is per-process
  mutable std::mutex stats_mutex_;
  Stats stats_;
  std::atomic<long long> unresolved_{0};
  util::Rng backoff_rng_;
  int backoff_round_ = 0;

  std::thread heartbeat_;
  std::mutex heartbeat_mutex_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;
};

}  // namespace dqma::sweep
