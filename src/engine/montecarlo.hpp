// Multi-threaded Monte-Carlo replication.
//
// Each replica receives its own Rng seeded deterministically from
// (master_seed, replica_index), so results are bit-identical regardless of
// the thread schedule or the number of workers.
//
// Two drivers:
//   * run_replicas / run_replicas_erased  -- abort-on-failure: the exception
//     thrown by the LOWEST replica index is rethrown in the calling thread
//     (deterministic across thread schedules).
//   * run_replicas_isolated / _erased     -- fault-isolating: a throwing
//     replica is retried up to max_attempts times with fresh deterministic
//     streams Rng::retry_seed(master_seed, replica, attempt); persistent
//     failures become structured ReplicaError records and every healthy
//     replica still returns a result.  These are adapters: the replica set
//     runs on run_supervised_set's thread executor (engine/supervisor) under
//     supervision_off() below, and the report is mapped back.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "engine/supervisor.hpp"
#include "obs/heartbeat.hpp"
#include "rng/rng.hpp"

namespace divlib {

struct MonteCarloOptions {
  std::uint64_t master_seed = 0xd117ULL;  // "div"; overridden by most callers
  // 0 = use hardware_concurrency (at least 1).
  unsigned num_threads = 0;
  // Attempts per replica in the isolated driver (>= 1); attempt 0 uses the
  // plain substream seed, so failure-free batches match run_replicas bit for
  // bit.  Ignored by the abort-on-failure driver.
  unsigned max_attempts = 1;
  // Optional cooperative cancellation (isolated drivers only): once the
  // token fires, workers stop claiming new replicas and the batch reports
  // cancelled = true.  Replicas already in flight drain normally -- pass the
  // same token through RunOptions::cancel to drain those at a step boundary
  // -- but an attempt that throws after the token fired is not retried.
  const CancelToken* cancel = nullptr;
  // Optional live progress counters (isolated drivers only): the driver
  // bumps completed/retried/errored as replicas reach verdicts, so a
  // Heartbeat can report throughput while the batch runs.  The driver does
  // NOT set `total` or `resumed` -- the caller knows the batch shape.  Null
  // disables the updates entirely.
  BatchProgress* progress = nullptr;
};

// 0 means hardware_concurrency (at least 1); every replica driver and
// supervision executor sizes its pool through this.
unsigned resolve_thread_count(unsigned requested);

// Returns the worker count that `options` resolves to.
unsigned resolve_thread_count(const MonteCarloOptions& options);

// Internal type-erased driver: invokes task(replica, rng) for each replica in
// [0, replicas), distributing replicas across threads.  If any task throws,
// the exception from the lowest throwing replica index is rethrown in the
// calling thread once all in-flight tasks have finished.
//
// Error contract (identical for every worker count): replicas are claimed in
// increasing index order, and once any task has recorded an error NO worker
// claims another replica -- in-flight tasks drain to their verdicts and the
// pool stops.  Consequences: every replica below the lowest failing index F
// always executes (it was claimed before F's error could be recorded); at
// most workers - 1 already-claimed replicas above F also execute; with one
// worker the executed set is exactly {0, ..., F}.  The rethrown exception is
// always F's, bit-identical across thread schedules.
void run_replicas_erased(std::size_t replicas,
                         const std::function<void(std::size_t, Rng&)>& task,
                         const MonteCarloOptions& options);

// Typed convenience wrapper: collects one Result per replica, in replica
// order.  Result must be default-constructible and movable.
template <typename Result, typename Task>
std::vector<Result> run_replicas(std::size_t replicas, Task&& task,
                                 const MonteCarloOptions& options = {}) {
  std::vector<Result> results(replicas);
  run_replicas_erased(
      replicas,
      [&results, &task](std::size_t replica, Rng& rng) {
        results[replica] = task(replica, rng);
      },
      options);
  return results;
}

// One replica that failed every attempt.
struct ReplicaError {
  std::size_t replica = 0;
  // Attempts actually CONSUMED, not the configured budget.  The isolated
  // driver exhausts its budget before reporting, so the two coincide there,
  // but policy layers (the supervisor's fail-fast path) stop early and the
  // count must say how many attempts really ran.
  unsigned attempts = 0;
  std::string message;  // what() of the last failure
};

struct BatchReport {
  std::size_t replicas = 0;           // replicas the batch was asked to run
  // Replicas that ran to a verdict: a result or an error.  A replica whose
  // attempt fails after options.cancel fired is left unfinished -- no retry
  // runs during shutdown -- and counts in neither this nor `errors`.
  std::size_t attempted = 0;
  std::uint64_t retries = 0;          // attempts beyond each replica's first
  std::vector<ReplicaError> errors;   // persistent failures, by replica index
  // True exactly when options.cancel was set and had fired by the time the
  // pool drained -- read directly from the token, NOT inferred from
  // attempted < replicas.  (A token that fires after the last replica is
  // claimed still reports cancelled = true with attempted == replicas; the
  // old inference reported false there and callers could not tell a clean
  // finish from a cancelled-but-complete one.)
  bool cancelled = false;
  bool ok() const { return errors.empty(); }
};

// The supervision-off policy, defined once for every unsupervised replica
// set (the isolated drivers below, run_campaign, a plain `divsim run`):
// seeds, threads, attempts, cancel and progress from `options`; no backoff,
// deadline, breaker, estimator or speculation; and every failure transient,
// so a throwing replica retries immediately up to max_attempts.
SupervisorOptions supervision_off(const MonteCarloOptions& options);

// The isolated drivers' view of a supervisor report: attempted is succeeded
// plus quarantined, and errors are the quarantines.
BatchReport to_batch_report(const SupervisorReport& report);

// Fault-isolating driver: every replica runs to a verdict; failures never
// abort the batch.  Deterministic: outcomes depend only on (master_seed,
// replica, attempt), not on the thread schedule.  Replicas are claimed in
// id order.
BatchReport run_replicas_isolated_erased(
    std::size_t replicas, const std::function<void(std::size_t, Rng&)>& task,
    const MonteCarloOptions& options);

// Subset variant for resumable campaigns: runs exactly the replica ids in
// `replica_ids` (any order, no duplicates), seeding each from its TRUE id
// via Rng::retry_seed(master_seed, id, attempt).  A campaign that skips
// journaled replicas and re-runs only the missing ones therefore reproduces
// the uninterrupted batch bit for bit.
BatchReport run_replica_set_isolated_erased(
    std::span<const std::size_t> replica_ids,
    const std::function<void(std::size_t, Rng&)>& task,
    const MonteCarloOptions& options);

template <typename Result>
struct IsolatedBatch {
  // nullopt exactly for the replicas listed in report.errors.
  std::vector<std::optional<Result>> results;
  BatchReport report;
};

// Typed fault-isolating wrapper.  A replica's slot holds the result of its
// first successful attempt, or nullopt if all attempts failed.
template <typename Result, typename Task>
IsolatedBatch<Result> run_replicas_isolated(std::size_t replicas, Task&& task,
                                            const MonteCarloOptions& options = {}) {
  IsolatedBatch<Result> batch;
  batch.results.resize(replicas);
  batch.report = run_replicas_isolated_erased(
      replicas,
      [&batch, &task](std::size_t replica, Rng& rng) {
        batch.results[replica] = task(replica, rng);
      },
      options);
  return batch;
}

}  // namespace divlib
