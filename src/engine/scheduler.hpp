// The supervision policy, written once: a pure, timestamp-fed scheduler for
// one supervised replica set.
//
// run_supervised_set has two executors -- the thread pool in
// engine/supervisor and the forked worker fleet in engine/fleet.  An
// executor launches attempts, signals them and collects their verdicts;
// every decision about WHICH attempt runs WHEN, and what a verdict means,
// is made here:
//
//   * replica phases and the ready heap (first_attempt bases included);
//   * the attempt budget, jittered backoff and the breaker's widening;
//   * fail-fast, quarantine and the Nth-worker-death reclassification;
//   * success accounting: estimator, breaker, progress and on_success;
//   * deadline re-arming (10% event hysteresis) and deadline kills;
//   * straggler speculation, and deferral while a twin is live;
//   * the operator-cancel drain and the breaker's width cap;
//   * every SupervisionEvent's counter and report tally (the executor's
//     worker-* events included), and the final report.
//
// Like LivenessTracker and CircuitBreaker, the scheduler is pure: callers
// pass an explicit `now` and get decisions back.  It starts no threads,
// takes no locks, reads no clock, sends no signals and fires no tokens --
// the executor does all of that with what the calls return.  Not
// thread-safe: the thread executor serializes calls under its mutex, the
// fleet calls from its single monitor thread.
//
// An EXECUTION is one launched instance of (replica, attempt); at most two
// are live per replica (the primary and a speculative twin on its seed).
// Every launch must end in exactly one verdict call or an unclaim().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "engine/adaptive/breaker.hpp"
#include "engine/supervisor.hpp"

namespace divlib {

// The failure taxonomy at the point an attempt throws: `body` runs, and a
// std::exception is classified by options.classify (classify_failure when
// empty); anything else is transient with the message "unknown exception".
// Returns nullopt when `body` returned normally.
struct AttemptFailure {
  FailureClass failure = FailureClass::kTransient;
  std::string message;
};

template <typename Body>
std::optional<AttemptFailure> catch_attempt_failure(
    const SupervisorOptions& options, Body&& body) {
  try {
    body();
    return std::nullopt;
  } catch (const std::exception& error) {
    return AttemptFailure{
        options.classify ? options.classify(error) : classify_failure(error),
        error.what()};
  } catch (...) {
    return AttemptFailure{FailureClass::kTransient, "unknown exception"};
  }
}

class ReplicaScheduler {
 public:
  using Clock = std::chrono::steady_clock;
  using ExecutionId = std::uint64_t;

  // One attempt instance the executor must launch on
  // Rng::retry_seed(master_seed, replica, attempt).
  struct Launch {
    ExecutionId execution = 0;
    std::size_t replica = 0;   // the caller's replica id
    unsigned attempt = 0;
    bool speculative = false;  // twin of a live (replica, attempt) instance
  };

  // A cancellation the executor must deliver to one live execution.  One
  // per execution, except that an operator drain (kUser) may be followed by
  // a deadline kill (kDeadline) for a task that ignores its token.
  struct Kill {
    ExecutionId execution = 0;
    CancelReason reason = CancelReason::kUser;
  };

  // `width` is the executor's full pool (worker threads or processes); the
  // breaker caps claims at a fraction of it while Open.  `executor` names
  // who launches: the process fleet runs no speculative twins, and only it
  // registers the fleet_* counters.  Every replica is queued ready at
  // `start` on its first_attempt base.
  ReplicaScheduler(
      std::span<const std::size_t> replica_ids,
      const SupervisorOptions& options,
      const std::function<void(std::size_t, std::string&&)>& on_success,
      std::size_t width, Isolation executor, Clock::time_point start);

  // Claims the next ready attempt for a worker, or nullopt when nothing is
  // ready, the operator cancelled, or `busy` workers already hold attempts
  // at the width cap.
  std::optional<Launch> claim(Clock::time_point now, std::size_t busy);
  // When claim() returned nullopt: the earliest time it could succeed with
  // no other input, or Clock::time_point::max() when only a verdict, a tick
  // or a cancel can unblock it.
  Clock::time_point wake_at(std::size_t busy) const;
  // The executor could not launch a claimed attempt (its worker died before
  // the assignment landed): requeue it untouched, consuming no budget.
  void unclaim(ExecutionId execution, Clock::time_point now);

  // Verdicts.  Each retires the execution.  succeeded() returns the twins
  // the executor must now supersede.
  std::vector<Kill> succeeded(ExecutionId execution, Clock::time_point now,
                              std::string&& payload);
  void failed(ExecutionId execution, Clock::time_point now,
              FailureClass failure, std::string message);
  // The attempt drained without a payload.  kDeadline is a retryable
  // deadline kill (`note` is appended to its detail), kSuperseded is
  // discarded, anything else leaves the replica unfinished for resume.
  void drained(ExecutionId execution, Clock::time_point now,
               CancelReason reason, std::string_view note = {});
  // The process running the attempt died without reporting.  The
  // max_worker_deaths_per_replica-th death on one replica is deterministic.
  void worker_died(ExecutionId execution, Clock::time_point now,
                   std::string detail);

  // Breaker cooldown, deadline re-arm and straggler speculation as of
  // `now`; returns the deadline kills, operator-drained executions included.
  // A tick can make work claimable with no verdict (a twin queued, the
  // breaker left Open), so executors with idle workers re-try claim() after
  // every tick.
  std::vector<Kill> tick(Clock::time_point now);
  // Operator cancel: queued work becomes unfinished, nothing retries, and
  // every live execution must drain (returned with kUser unless already
  // signalled).  Deadlines still run, so a task that ignores the drain is
  // killed like any straggler.
  std::vector<Kill> cancel();

  // Claims allowed in flight: the breaker's cap while Open, else width.
  std::size_t width_cap() const;
  std::size_t remaining() const { return replicas_.size() - terminal_; }
  bool finished() const { return terminal_ == replicas_.size(); }
  bool idle() const { return finished() && live_.empty(); }
  bool cancelled() const { return cancel_seen_; }

  // Every event, the executor's worker-* ones included, goes through here:
  // its registry counter, its report tally, then options.on_event.
  void emit(const SupervisionEvent& event);

  // Counts terminal phases, sorts the quarantine list and hands over the
  // report.  `cancelled` is whether the operator's token had fired.
  SupervisorReport finish(bool cancelled);

 private:
  enum class Phase { kQueued, kRunning, kDone, kQuarantined, kUnfinished };

  struct Replica {
    std::size_t id = 0;
    Phase phase = Phase::kQueued;
    unsigned base_attempt = 0;     // first seed index (poison-seed dodge)
    unsigned next_attempt = 0;     // next fresh seed index to schedule
    unsigned current_attempt = 0;  // seed index of the in-flight instance
    unsigned consumed = 0;         // attempt instances that reached a failure
    unsigned worker_deaths = 0;    // crashes while running this replica
    bool twin_launched = false;    // duplicate exists for the current attempt
  };

  struct WorkItem {
    Clock::time_point ready_at;
    std::size_t slot = 0;
    unsigned attempt = 0;
    bool speculative = false;
  };

  // Min-heap on ready_at; equal times claim in replica-set order, so a
  // fresh set runs (and a cancel cuts it) in the order the caller listed.
  struct ReadyLater {
    bool operator()(const WorkItem& a, const WorkItem& b) const {
      if (a.ready_at != b.ready_at) {
        return a.ready_at > b.ready_at;
      }
      return a.slot > b.slot;
    }
  };

  struct Execution {
    ExecutionId id = 0;
    std::size_t slot = 0;
    unsigned attempt = 0;
    bool speculative = false;
    CancelReason signalled = CancelReason::kNone;  // the last Kill issued
    Clock::time_point started;
  };

  bool stale(const WorkItem& item) const;
  Launch start(const WorkItem& item, Clock::time_point now);
  Execution retire(ExecutionId execution);
  bool twin_live(std::size_t slot) const;
  void terminate(Replica& replica, Phase phase);
  void fail(std::size_t slot, unsigned attempt, Clock::time_point now,
            FailureClass failure, std::string message);
  void quarantine(Replica& replica, FailureClass failure, std::string message);
  void publish_breaker(const std::vector<BreakerTransition>& moved);
  void rearm_deadline();
  void speculate(Clock::time_point now);

  const SupervisorOptions& options_;
  const std::function<void(std::size_t, std::string&&)>& on_success_;
  const std::size_t width_;
  const Isolation executor_;

  std::vector<Replica> replicas_;
  std::priority_queue<WorkItem, std::vector<WorkItem>, ReadyLater> queue_;
  std::vector<Execution> live_;    // in launch order
  ExecutionId next_execution_ = 0;
  std::vector<double> durations_;  // successful attempt durations, sorted
  std::size_t terminal_ = 0;       // replicas done, quarantined or unfinished
  bool cancel_seen_ = false;
  // Effective per-attempt deadline: options_.deadline until the estimator's
  // confidence gate opens, the learned quantile x safety after.
  std::chrono::milliseconds armed_deadline_{0};
  bool armed_learned_ = false;
  std::optional<CircuitBreaker> breaker_;
  Counter* counters_[SupervisionEvent::kNumKinds] = {};
  std::uint64_t SupervisorReport::*tallies_[SupervisionEvent::kNumKinds] = {};
  SupervisorReport report_;
};

}  // namespace divlib
