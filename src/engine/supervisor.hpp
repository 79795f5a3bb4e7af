// Policy-driven supervision for Monte-Carlo batches.
//
// The paper's completion-time guarantees are EXPECTATION bounds (eq. 4), so
// any replicated campaign has a heavy runtime tail by construction -- and
// adversarial inputs (the exp06 near-path regime) push single replicas
// toward Theta(n^2) steps.  With supervision off (supervision_off in
// engine/montecarlo, the policy of the isolated drivers and of a plain
// `divsim run`) a failure retries immediately, steps are capped but not
// wall-clock, and a campaign with 999/1000 healthy replicas cannot finish.
// Supervision adds the four policies a production fleet needs, without
// touching replica semantics:
//
//   1. Deadlines.  Each attempt gets a private CancelToken; a monitor thread
//      fires it with CancelReason::kDeadline once the wall-clock budget
//      expires.  Both engines already poll the token, so the attempt drains
//      at a step boundary and reports RunStatus::kDeadline -- distinct from
//      the step-budget kCapped and the operator's kCancelled.
//   2. Error taxonomy + backoff.  Failures are classified transient /
//      resource / deterministic (classify_failure, overridable).  Transient
//      and resource failures retry on the existing Rng::retry_seed streams
//      after a jittered exponential backoff; deterministic failures fail
//      fast (no retry can change a logic error).  The jitter is drawn from a
//      supervisor-owned stream keyed by (master_seed, replica, attempt), so
//      retry SCHEDULES are as reproducible as retry RESULTS.
//   3. Straggler mitigation.  Once enough replicas have completed to
//      estimate a running median duration, an attempt exceeding
//      straggler_factor x median gets a speculative duplicate on the SAME
//      (replica, attempt) seed -- identical result by construction, so
//      first-finisher-wins is safe; the loser's token fires kSuperseded.
//   4. Quorum accounting.  Replicas that exhaust their budget are
//      quarantined (with class, attempts consumed, and last message) instead
//      of poisoning the batch; the campaign layer turns the quarantine list
//      plus min_success_fraction into a kDegraded / kFailed verdict.
//
// Determinism: a replica that succeeds on attempt A returns the exact bytes
// an unsupervised run of retry_seed(master, replica, A) returns -- the
// supervisor changes WHICH attempts run and WHEN, never what an attempt
// computes.  Every supervision decision is reported as a SupervisionEvent
// (and mirrored into a MetricsRegistry when given one).
//
// The policies are decided once, by the pure ReplicaScheduler
// (engine/scheduler), for two executors: the in-process thread pool
// (engine/supervisor.cpp) and the forked worker fleet (engine/fleet).  Every
// fault-isolating replica set -- supervised or not -- runs on one of them;
// only the abort-on-failure run_replicas_erased keeps a pool of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "engine/adaptive/breaker.hpp"
#include "engine/adaptive/estimator.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"

namespace divlib {

// How a failed attempt should be treated.
enum class FailureClass {
  kTransient,      // unknown cause: retry is worth the attempt budget
  kResource,       // bad_alloc / I/O / system errors: retry after backoff
  kDeterministic,  // logic errors: every retry would fail identically
};

const char* to_string(FailureClass failure);
// Inverse of to_string; throws std::invalid_argument on unknown names.
FailureClass parse_failure_class(std::string_view name);

// Default taxonomy over the dynamic exception type: bad_alloc and
// system_error (which subsumes ios_base::failure) are resource pressure,
// the logic_error family is deterministic, everything else -- including
// non-std exceptions -- is transient.
FailureClass classify_failure(const std::exception& error);

// Where attempts execute.  kThread is the in-process worker pool from PR 5;
// kProcess forks one worker process per pool slot (engine/fleet), so a
// crashing replica -- SIGSEGV, stack smash, unhandled bad_alloc -- kills its
// worker, not the campaign.  Healthy replicas produce bit-identical payloads
// under both modes.
enum class Isolation { kThread, kProcess };

const char* to_string(Isolation isolation);
// Inverse of to_string ("thread" / "process"); throws std::invalid_argument.
Isolation parse_isolation(std::string_view name);

// Knobs for the process-isolated fleet (used only under Isolation::kProcess;
// see engine/fleet.hpp for the executor).
struct FleetOptions {
  // Worker processes; 0 falls back to SupervisorOptions::num_threads
  // resolution (hardware_concurrency when that is 0 too).
  unsigned workers = 0;
  // Worker heartbeat cadence on its result pipe.
  std::chrono::milliseconds heartbeat_interval{50};
  // Liveness thresholds, both measured since the worker's last beat:
  // Alive -> Suspect at suspect_after, Suspect -> Dead at dead_after (the
  // parent then SIGKILLs the worker and reassigns its attempt).
  std::chrono::milliseconds suspect_after{500};
  std::chrono::milliseconds dead_after{2000};
  // The Nth worker death while running the SAME replica reclassifies the
  // failure deterministic (=> quarantine): one crash may be cosmic-ray bad
  // luck, repeated crashes on one seed are a reproducible bug.
  unsigned max_worker_deaths_per_replica = 2;
};

// One supervision decision, reported as it happens.
struct SupervisionEvent {
  enum class Kind {
    kRetry,              // failure rescheduled; backoff_ms says when
    kFailFast,           // deterministic failure: remaining budget forfeited
    kDeadlineKill,       // attempt exceeded the wall-clock deadline
    kSpeculativeLaunch,  // duplicate enqueued for a straggling attempt
    kSpeculativeWin,     // the duplicate finished first
    kQuarantine,         // budget exhausted; replica excluded from the batch
    // Fleet liveness (Isolation::kProcess only).  `worker` carries the
    // worker index; replica/attempt describe its in-flight assignment when
    // one exists.
    kWorkerSpawn,    // worker forked; liveness Unknown
    kWorkerAlive,    // first beat, or a beat recovered a Suspect worker
    kWorkerSuspect,  // suspect_after elapsed without a beat
    kWorkerDead,     // dead_after elapsed, or the process exited
    kWorkerDismiss,  // idle worker retired: an Open breaker shrank the pool
    // Adaptive control plane (engine/adaptive).  backoff_ms carries the
    // armed deadline for kDeadlineAdapt; replica/attempt are meaningless
    // for all three.
    kDeadlineAdapt,  // the learned per-attempt deadline changed
    kBreakerOpen,    // failure spike: pool shrunk, backoff widened
    kBreakerClose,   // quiet period: full pool size restored
  };
  static constexpr std::size_t kNumKinds = 14;
  Kind kind = Kind::kRetry;
  std::size_t replica = 0;
  unsigned attempt = 0;  // seed index the event refers to
  FailureClass failure = FailureClass::kTransient;
  double backoff_ms = 0.0;  // kRetry only: scheduled wait before the attempt
  std::string detail;       // exception text / human context
  // Fleet worker index for kWorker* events; -1 (and omitted from the JSON)
  // everywhere else.
  std::int64_t worker = -1;

  // Flat JSON object (no "type" field; emitters add their own framing).
  std::string to_json() const;
};

const char* to_string(SupervisionEvent::Kind kind);

// A replica excluded from the batch after its attempt budget (or fail-fast
// classification) was exhausted.  Journaled by the campaign layer so a
// resume skips the replica instead of re-poisoning the run.
struct QuarantineRecord {
  std::size_t replica = 0;
  // Attempt indices consumed over the replica's LIFETIME (first_attempt base
  // plus attempts this run): also the first fresh retry_seed index, which is
  // what the campaign layer's poison-seed dodge resumes from.
  unsigned attempts = 0;
  FailureClass failure = FailureClass::kTransient;
  std::string message;  // what() of the last failure
};

struct SupervisorOptions {
  std::uint64_t master_seed = 0xd117ULL;
  // 0 = hardware_concurrency (at least 1).
  unsigned num_threads = 0;
  // Total attempt instances per replica (>= 1), counting the first run --
  // the same budget MonteCarloOptions::max_attempts expresses.
  unsigned max_attempts = 1;
  // Per-ATTEMPT wall-clock budget; zero disables deadline enforcement.
  // Cooperative: the attempt drains at its next step boundary, so the
  // effective kill latency is one step plus the monitor poll interval.
  std::chrono::milliseconds deadline{0};
  // Backoff before retry r (1-based) is base * 2^(r-1), jittered uniformly
  // into [0.5x, 1.5x) and clamped to backoff_cap.  base <= 0 retries
  // immediately.
  std::chrono::milliseconds backoff_base{100};
  std::chrono::milliseconds backoff_cap{10'000};
  // Speculative re-execution threshold: an attempt older than
  // straggler_factor x (running median of successful attempt durations)
  // gets a duplicate.  0 disables speculation.
  double straggler_factor = 0.0;
  // Successful attempts required before the median is trusted.
  std::size_t straggler_warmup = 3;
  // Quorum for degraded completion, used by the campaign layer: succeeded /
  // replicas must reach this fraction for a quarantine-bearing campaign to
  // count as kDegraded rather than kFailed.
  double min_success_fraction = 1.0;
  // Operator cancellation (SIGINT): propagated to every in-flight attempt
  // as CancelReason::kUser; queued work is marked unfinished for resume.
  // Thread workers check it before every claim and every verdict, and no
  // retry runs after it fired: an attempt that fails then leaves its
  // replica unfinished, not retried or quarantined.
  const CancelToken* cancel = nullptr;
  // Optional heartbeat counters, same contract as MonteCarloOptions.
  BatchProgress* progress = nullptr;
  // Optional registry: supervision decisions bump supervisor_* counters.
  MetricsRegistry* metrics = nullptr;
  // Optional event sink.  Called outside the executor's lock, one call at a
  // time and in the order the decisions were made, but not serialized with
  // on_success.  The thread whose verdict raised an event delivers it
  // before it claims again.  A throw ends the run (see run_supervised_set).
  // Never call back into the supervisor.
  std::function<void(const SupervisionEvent&)> on_event;
  // Failure taxonomy override; classify_failure when empty.
  std::function<FailureClass(const std::exception&)> classify;
  // Execution substrate.  kThread runs attempts on an in-process pool;
  // kProcess forks a worker fleet (engine/fleet) governed by `fleet`.
  Isolation isolation = Isolation::kThread;
  FleetOptions fleet;
  // Per-replica starting attempt index (0 when empty).  The campaign layer
  // uses this for the poison-seed dodge: a resume that re-admits a
  // quarantined replica starts AFTER the attempts that already failed
  // deterministically, so the retry runs on a fresh retry_seed stream
  // instead of replaying the poisoned one.  The attempt budget still allows
  // max_attempts NEW attempts from this base.
  std::function<unsigned(std::size_t replica)> first_attempt;
  // Adaptive control plane (engine/adaptive).  When `estimator` is set,
  // every successful attempt feeds its wall time in, and -- once the
  // estimator's confidence gate opens -- straggler speculation switches
  // from reactive (factor x running median) to predictive (elapsed beyond
  // the learned quantile).  With deadline_auto additionally set, the
  // per-attempt deadline becomes the estimator's quantile x safety_factor;
  // `deadline` above is the fallback until confidence (0 keeps attempts
  // un-deadlined during warmup).  Caller-owned and thread-safe: one
  // instance is typically shared across a whole campaign, including
  // resumes (see engine/adaptive/calibration.*).  Deadline changes and
  // breaker trips are reported as SupervisionEvents, so journal consumers
  // can explain every kill.
  CompletionEstimator* estimator = nullptr;
  bool deadline_auto = false;
  // Backpressure: when enabled, transient/resource failures and worker
  // deaths feed a circuit breaker; while it is Open, retry backoff is
  // widened by breaker.backoff_multiplier and in-flight width is capped at
  // breaker.width_fraction of the pool (floor 1) under either isolation --
  // thread workers stop claiming past the cap, and the process fleet also
  // dismisses idle workers down to it.  Disabled by default -- supervision
  // semantics are unchanged unless a caller opts in.
  bool breaker_enabled = false;
  BreakerOptions breaker;
};

// One attempt of one replica.  `rng` is seeded from (master_seed, replica,
// attempt); `cancel` is the attempt's private lease token -- pass it through
// RunOptions::cancel so deadline kills drain at a step boundary.  Return the
// payload on success, nullopt when the run drained on the token (the
// supervisor inspects the token's reason to tell a deadline kill from an
// operator drain), and throw to report a failure.
using SupervisedTask = std::function<std::optional<std::string>(
    std::size_t replica, Rng& rng, const CancelToken& cancel)>;

struct SupervisorReport {
  std::size_t replicas = 0;    // replicas the batch was asked to run
  std::size_t succeeded = 0;   // replicas that produced a payload
  std::size_t unfinished = 0;  // drained by operator cancel; re-run on resume
  std::vector<QuarantineRecord> quarantined;  // sorted by replica id
  std::uint64_t retries = 0;          // attempt instances beyond each first
  std::uint64_t fail_fasts = 0;       // deterministic failures, no retry
  std::uint64_t deadline_kills = 0;   // attempts killed by the wall clock
  std::uint64_t speculative_launches = 0;
  std::uint64_t speculative_wins = 0;
  // Fleet accounting (zero under Isolation::kThread).
  std::uint64_t worker_spawns = 0;    // forks, including replacements
  std::uint64_t worker_suspects = 0;  // Alive/Unknown -> Suspect transitions
  std::uint64_t worker_deaths = 0;    // Suspect -> Dead transitions
  std::uint64_t worker_dismissals = 0;  // idle workers retired by the breaker
  // Adaptive control plane accounting (zero when no estimator / breaker).
  std::uint64_t deadline_adapts = 0;  // learned-deadline changes published
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  // Last armed adaptive deadline; 0 when the confidence gate never opened.
  double learned_deadline_ms = 0.0;
  double backoff_wait_ms = 0.0;  // total scheduled (not wall) backoff
  bool cancelled = false;        // options.cancel had fired by the drain

  double success_fraction() const {
    return replicas == 0 ? 1.0
                         : static_cast<double>(succeeded) /
                               static_cast<double>(replicas);
  }
};

// The deterministic backoff schedule (exposed for tests and dry-run
// tooling): delay before running `attempt` (>= 1) of `replica`.
std::chrono::milliseconds backoff_delay(const SupervisorOptions& options,
                                        std::size_t replica, unsigned attempt);

// Runs every replica id in `replica_ids` (any order, no duplicates) to a
// terminal state -- done, quarantined, or unfinished -- under the policies
// above.  `on_success` receives each winning payload exactly once per
// replica, outside the executor's lock, and possibly concurrently for
// different replicas: a callback that journals must be thread-safe, and a
// worker's call returns before that worker claims its next attempt (so a
// flush inside it is durable before the next attempt starts, and
// concurrent flushes can share one fsync).  Worker threads execute
// attempts; the calling thread runs the deadline/straggler monitor until
// the batch drains.  If on_success, on_event or the estimator's observer
// throws, no further attempt starts, in-flight ones drain as under an
// operator cancel, and the first such error is rethrown from here (under
// Isolation::kProcess it propagates out of the fleet's poll loop).
SupervisorReport run_supervised_set(
    std::span<const std::size_t> replica_ids, const SupervisedTask& task,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    const SupervisorOptions& options);

}  // namespace divlib
