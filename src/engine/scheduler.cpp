#include "engine/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace divlib {

namespace {

// Jitter stream salt: keeps backoff draws out of every replica stream
// (substream/retry seeds) while staying a pure function of the master seed.
constexpr std::uint64_t kBackoffSalt = 0xb0ff5eedULL;

using Kind = SupervisionEvent::Kind;

// Every event's bookkeeping, in registry order: the counter it bumps and the
// report field it tallies.  The worker-* counters exist only when the process
// fleet executes (thread mode never emits those kinds).
struct EventBook {
  Kind kind;
  const char* counter;
  std::uint64_t SupervisorReport::*tally;  // nullptr: no report field
  bool fleet_only;
};
constexpr EventBook kEventBook[] = {
    {Kind::kRetry, "supervisor_retries", &SupervisorReport::retries, false},
    {Kind::kFailFast, "supervisor_fail_fasts", &SupervisorReport::fail_fasts,
     false},
    {Kind::kDeadlineKill, "supervisor_deadline_kills",
     &SupervisorReport::deadline_kills, false},
    {Kind::kSpeculativeLaunch, "supervisor_speculative_launches",
     &SupervisorReport::speculative_launches, false},
    {Kind::kSpeculativeWin, "supervisor_speculative_wins",
     &SupervisorReport::speculative_wins, false},
    {Kind::kQuarantine, "supervisor_quarantines", nullptr, false},
    {Kind::kWorkerSpawn, "fleet_worker_spawns",
     &SupervisorReport::worker_spawns, true},
    {Kind::kWorkerAlive, "fleet_worker_alive", nullptr, true},
    {Kind::kWorkerSuspect, "fleet_worker_suspects",
     &SupervisorReport::worker_suspects, true},
    {Kind::kWorkerDead, "fleet_worker_deaths", &SupervisorReport::worker_deaths,
     true},
    {Kind::kWorkerDismiss, "fleet_worker_dismissals",
     &SupervisorReport::worker_dismissals, true},
    {Kind::kDeadlineAdapt, "supervisor_deadline_adapts",
     &SupervisorReport::deadline_adapts, false},
    {Kind::kBreakerOpen, "supervisor_breaker_opens",
     &SupervisorReport::breaker_opens, false},
    {Kind::kBreakerClose, "supervisor_breaker_closes",
     &SupervisorReport::breaker_closes, false},
};

}  // namespace

std::chrono::milliseconds backoff_delay(const SupervisorOptions& options,
                                        std::size_t replica,
                                        unsigned attempt) {
  if (options.backoff_base.count() <= 0 || attempt == 0) {
    return std::chrono::milliseconds{0};
  }
  // base * 2^(attempt-1), exponent clamped so the double stays finite; the
  // cap below is what actually bounds the wait.
  const int exponent = static_cast<int>(std::min(attempt - 1, 20u));
  const double base = static_cast<double>(options.backoff_base.count()) *
                      std::ldexp(1.0, exponent);
  // Deterministic jitter: a private stream keyed by (master ^ salt, replica,
  // attempt), so the schedule replays exactly and never perturbs any replica
  // stream.  Uniform in [0.5x, 1.5x) -- desynchronizes retry herds while
  // keeping the expectation at the nominal delay.
  Rng jitter(Rng::retry_seed(options.master_seed ^ kBackoffSalt, replica,
                             attempt));
  double delay = base * (0.5 + jitter.uniform01());
  if (options.backoff_cap.count() > 0) {
    delay = std::min(delay, static_cast<double>(options.backoff_cap.count()));
  }
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(std::llround(delay)));
}

ReplicaScheduler::ReplicaScheduler(
    std::span<const std::size_t> replica_ids, const SupervisorOptions& options,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    std::size_t width, Isolation executor, Clock::time_point start)
    : options_(options),
      on_success_(on_success),
      width_(width),
      executor_(executor),
      armed_deadline_(options.deadline) {
  for (const EventBook& book : kEventBook) {
    const auto kind = static_cast<std::size_t>(book.kind);
    tallies_[kind] = book.tally;
    if (options_.metrics != nullptr &&
        (!book.fleet_only || executor_ == Isolation::kProcess)) {
      counters_[kind] = &options_.metrics->counter(book.counter);
    }
  }
  if (options_.breaker_enabled) {
    breaker_.emplace(options_.breaker, start);
  }
  report_.replicas = replica_ids.size();
  replicas_.reserve(replica_ids.size());
  for (const std::size_t id : replica_ids) {
    Replica replica;
    replica.id = id;
    replica.base_attempt =
        options_.first_attempt ? options_.first_attempt(id) : 0;
    replica.next_attempt = replica.base_attempt + 1;
    queue_.push({start, replicas_.size(), replica.base_attempt, false});
    replicas_.push_back(replica);
  }
}

// ---------------------------------------------------------------------------
// Claims

bool ReplicaScheduler::stale(const WorkItem& item) const {
  const Replica& replica = replicas_[item.slot];
  if (item.speculative) {
    // A twin is valid only while the exact instance it duplicates is still
    // in flight (not finished, failed, or moved on to another attempt).
    return replica.phase != Phase::kRunning ||
           replica.current_attempt != item.attempt;
  }
  return replica.phase != Phase::kQueued;
}

ReplicaScheduler::Launch ReplicaScheduler::start(const WorkItem& item,
                                                 Clock::time_point now) {
  Replica& replica = replicas_[item.slot];
  if (!item.speculative) {
    replica.phase = Phase::kRunning;
    replica.current_attempt = item.attempt;
  }
  Execution execution;
  execution.id = next_execution_++;
  execution.slot = item.slot;
  execution.attempt = item.attempt;
  execution.speculative = item.speculative;
  execution.started = now;
  live_.push_back(execution);
  return {execution.id, replica.id, item.attempt, item.speculative};
}

std::optional<ReplicaScheduler::Launch> ReplicaScheduler::claim(
    Clock::time_point now, std::size_t busy) {
  if (cancel_seen_) {
    return std::nullopt;
  }
  while (!queue_.empty()) {
    const WorkItem item = queue_.top();
    if (item.ready_at > now) {
      return std::nullopt;
    }
    if (stale(item)) {
      queue_.pop();
      continue;
    }
    if (busy >= width_cap()) {
      return std::nullopt;
    }
    queue_.pop();
    return start(item, now);
  }
  return std::nullopt;
}

ReplicaScheduler::Clock::time_point ReplicaScheduler::wake_at(
    std::size_t busy) const {
  if (cancel_seen_ || queue_.empty() || busy >= width_cap()) {
    return Clock::time_point::max();
  }
  return queue_.top().ready_at;
}

void ReplicaScheduler::unclaim(ExecutionId execution, Clock::time_point now) {
  const Execution gone = retire(execution);
  if (!gone.speculative) {
    replicas_[gone.slot].phase = Phase::kQueued;
  }
  queue_.push({now, gone.slot, gone.attempt, gone.speculative});
}

std::size_t ReplicaScheduler::width_cap() const {
  return breaker_.has_value() ? breaker_->cap(width_) : width_;
}

// ---------------------------------------------------------------------------
// Verdicts

ReplicaScheduler::Execution ReplicaScheduler::retire(ExecutionId execution) {
  const auto it =
      std::find_if(live_.begin(), live_.end(), [&](const Execution& live) {
        return live.id == execution;
      });
  if (it == live_.end()) {
    throw std::logic_error("ReplicaScheduler: execution " +
                           std::to_string(execution) + " is not live");
  }
  const Execution gone = *it;
  live_.erase(it);
  return gone;
}

bool ReplicaScheduler::twin_live(std::size_t slot) const {
  return std::any_of(live_.begin(), live_.end(), [&](const Execution& live) {
    return live.slot == slot;
  });
}

void ReplicaScheduler::terminate(Replica& replica, Phase phase) {
  replica.phase = phase;
  ++terminal_;
}

std::vector<ReplicaScheduler::Kill> ReplicaScheduler::succeeded(
    ExecutionId execution, Clock::time_point now, std::string&& payload) {
  const Execution done = retire(execution);
  Replica& replica = replicas_[done.slot];
  replica.worker_deaths = 0;  // the replica proved it can finish
  if (replica.phase != Phase::kRunning ||
      replica.current_attempt != done.attempt) {
    return {};  // the twin already won with identical bytes
  }
  terminate(replica, Phase::kDone);
  const double seconds =
      std::chrono::duration<double>(now - done.started).count();
  durations_.insert(
      std::upper_bound(durations_.begin(), durations_.end(), seconds),
      seconds);
  if (options_.estimator != nullptr) {
    options_.estimator->observe(seconds);
  }
  if (breaker_.has_value()) {
    publish_breaker(breaker_->record_success(now));
  }
  if (done.speculative) {
    emit({SupervisionEvent::Kind::kSpeculativeWin, replica.id, done.attempt,
          FailureClass::kTransient, 0.0, {}});
  }
  std::vector<Kill> superseded;
  for (Execution& twin : live_) {
    if (twin.slot == done.slot && twin.attempt == done.attempt &&
        twin.signalled == CancelReason::kNone) {
      twin.signalled = CancelReason::kSuperseded;
      superseded.push_back({twin.id, CancelReason::kSuperseded});
    }
  }
  if (options_.progress != nullptr) {
    options_.progress->completed.fetch_add(1, std::memory_order_relaxed);
  }
  on_success_(replica.id, std::move(payload));
  return superseded;
}

void ReplicaScheduler::failed(ExecutionId execution, Clock::time_point now,
                              FailureClass failure, std::string message) {
  const Execution gone = retire(execution);
  fail(gone.slot, gone.attempt, now, failure, std::move(message));
}

void ReplicaScheduler::drained(ExecutionId execution, Clock::time_point now,
                               CancelReason reason, std::string_view note) {
  const Execution gone = retire(execution);
  Replica& replica = replicas_[gone.slot];
  if (reason == CancelReason::kDeadline) {
    std::string detail =
        (armed_learned_ ? "learned deadline of " : "wall-clock deadline of ") +
        std::to_string(armed_deadline_.count()) + "ms exceeded";
    detail += note;
    emit({SupervisionEvent::Kind::kDeadlineKill, replica.id, gone.attempt,
          FailureClass::kTransient, 0.0, detail});
    // A deadline kill is a retryable failure: the wall clock says nothing
    // about determinism, and a fresh stream may well miss the tail.
    fail(gone.slot, gone.attempt, now, FailureClass::kTransient,
         std::move(detail));
    return;
  }
  if (reason == CancelReason::kSuperseded) {
    return;  // the twin won; this result is unwanted by construction
  }
  // Operator cancel (or a task that declined on its own): unfinished, and
  // never retried -- the resume re-runs it from its true seed.
  if (replica.phase == Phase::kRunning &&
      replica.current_attempt == gone.attempt && !twin_live(gone.slot)) {
    terminate(replica, Phase::kUnfinished);
  }
}

void ReplicaScheduler::worker_died(ExecutionId execution,
                                   Clock::time_point now, std::string detail) {
  const Execution gone = retire(execution);
  // The first death on a replica could be anything (an OOM kill, a stray
  // bit, the scheduler) => transient, retried on a fresh seed.  Repeated
  // deaths on the SAME replica are a reproducible crash => deterministic.
  Replica& replica = replicas_[gone.slot];
  ++replica.worker_deaths;
  const FailureClass failure =
      replica.worker_deaths >=
              std::max(1u, options_.fleet.max_worker_deaths_per_replica)
          ? FailureClass::kDeterministic
          : FailureClass::kTransient;
  fail(gone.slot, gone.attempt, now, failure, std::move(detail));
}

// A failed attempt instance reached its verdict: consume one unit of budget
// and decide retry / fail-fast / quarantine.
void ReplicaScheduler::fail(std::size_t slot, unsigned attempt,
                            Clock::time_point now, FailureClass failure,
                            std::string message) {
  Replica& replica = replicas_[slot];
  if (replica.phase != Phase::kRunning || replica.current_attempt != attempt) {
    return;  // stale: the instance already reached a verdict elsewhere
  }
  if (twin_live(slot)) {
    // The duplicate on the same seed is still running (say the primary hit
    // its deadline while the twin is healthy): defer to the survivor rather
    // than consuming the shared attempt twice.
    return;
  }
  ++replica.consumed;
  replica.twin_launched = false;
  if (cancel_seen_) {
    terminate(replica, Phase::kUnfinished);  // no retries during shutdown
    return;
  }
  if (failure == FailureClass::kDeterministic) {
    emit({SupervisionEvent::Kind::kFailFast, replica.id, attempt, failure, 0.0,
          message});
    quarantine(replica, failure, std::move(message));
    return;
  }
  // Transient/resource failures (worker crashes included, until they are
  // reclassified) are load signals; a deterministic bug is not, so it never
  // feeds the breaker.
  if (breaker_.has_value()) {
    publish_breaker(breaker_->record_failure(now));
  }
  if (replica.next_attempt - replica.base_attempt >=
      std::max(1u, options_.max_attempts)) {
    quarantine(replica, failure, std::move(message));
    return;
  }
  const unsigned next = replica.next_attempt++;
  std::chrono::milliseconds delay = backoff_delay(options_, replica.id, next);
  if (breaker_.has_value() && breaker_->backoff_multiplier() > 1.0) {
    // Global widening while the breaker is open; the cap still rules.
    double widened =
        static_cast<double>(delay.count()) * breaker_->backoff_multiplier();
    if (options_.backoff_cap.count() > 0) {
      widened = std::min(widened,
                         static_cast<double>(options_.backoff_cap.count()));
    }
    delay = std::chrono::milliseconds(
        static_cast<std::int64_t>(std::llround(widened)));
  }
  report_.backoff_wait_ms += static_cast<double>(delay.count());
  if (options_.progress != nullptr) {
    options_.progress->retried.fetch_add(1, std::memory_order_relaxed);
  }
  emit({SupervisionEvent::Kind::kRetry, replica.id, next, failure,
        static_cast<double>(delay.count()), message});
  replica.phase = Phase::kQueued;
  queue_.push({now + delay, slot, next, false});
}

void ReplicaScheduler::quarantine(Replica& replica, FailureClass failure,
                                  std::string message) {
  terminate(replica, Phase::kQuarantined);
  if (options_.progress != nullptr) {
    options_.progress->completed.fetch_add(1, std::memory_order_relaxed);
    options_.progress->errored.fetch_add(1, std::memory_order_relaxed);
  }
  // `attempts` is cumulative across resumes (base + consumed this run), so
  // a later poison-seed dodge resumes from a fresh retry_seed stream.
  const unsigned attempts = replica.base_attempt + replica.consumed;
  emit({SupervisionEvent::Kind::kQuarantine, replica.id, attempts, failure,
        0.0, message});
  report_.quarantined.push_back(
      {replica.id, attempts, failure, std::move(message)});
}

// ---------------------------------------------------------------------------
// Time and cancel

std::vector<ReplicaScheduler::Kill> ReplicaScheduler::tick(
    Clock::time_point now) {
  if (breaker_.has_value()) {
    publish_breaker(breaker_->tick(now));
  }
  rearm_deadline();
  std::vector<Kill> kills;
  if (armed_deadline_.count() > 0) {
    for (Execution& execution : live_) {
      // An operator drain is cooperative and does not stop the clock: a task
      // that ignores its token still gets the deadline kill, which the
      // process executor escalates to SIGKILL.  (A thread's token keeps its
      // first reason, so there the second kill changes nothing.)
      const bool killable = execution.signalled == CancelReason::kNone ||
                            execution.signalled == CancelReason::kUser;
      if (killable && now - execution.started >= armed_deadline_) {
        execution.signalled = CancelReason::kDeadline;
        kills.push_back({execution.id, CancelReason::kDeadline});
      }
    }
  }
  if (executor_ == Isolation::kThread && options_.straggler_factor > 0.0 &&
      !cancel_seen_) {
    speculate(now);
  }
  return kills;
}

void ReplicaScheduler::speculate(Clock::time_point now) {
  // Predictive speculation once the estimator is confident: an attempt
  // already past the learned quantile is in the worst (1-P) tail, so its
  // projected finish exceeds what the distribution promises -- speculate NOW
  // instead of waiting for factor x median of this run's own (possibly
  // sparse) durations.  The reactive median is the fallback.
  double threshold = 0.0;
  bool predictive = false;
  if (options_.estimator != nullptr && options_.estimator->confident()) {
    threshold = options_.estimator->quantile_seconds();
    predictive = threshold > 0.0;
  }
  if (!predictive) {
    if (durations_.size() <
        std::max<std::size_t>(1, options_.straggler_warmup)) {
      return;
    }
    threshold =
        options_.straggler_factor * durations_[durations_.size() / 2];
  }
  if (threshold <= 0.0) {
    return;
  }
  for (const Execution& execution : live_) {
    Replica& replica = replicas_[execution.slot];
    if (execution.speculative || replica.twin_launched ||
        replica.phase != Phase::kRunning ||
        replica.current_attempt != execution.attempt ||
        execution.signalled != CancelReason::kNone) {
      continue;
    }
    const double elapsed =
        std::chrono::duration<double>(now - execution.started).count();
    if (elapsed <= threshold) {
      continue;
    }
    replica.twin_launched = true;
    emit({SupervisionEvent::Kind::kSpeculativeLaunch, replica.id,
          execution.attempt, FailureClass::kTransient, 0.0,
          predictive ? "projected finish past learned q" +
                           std::to_string(
                               options_.estimator->options().quantile) +
                           " (" + std::to_string(threshold) + "s)"
                     : "elapsed exceeds " +
                           std::to_string(options_.straggler_factor) +
                           "x median"});
    queue_.push({now, execution.slot, execution.attempt, true});
  }
}

std::vector<ReplicaScheduler::Kill> ReplicaScheduler::cancel() {
  cancel_seen_ = true;
  // Fresh items whose replica never started become unfinished (a resume
  // re-runs them from their true seeds); twins simply vanish.
  while (!queue_.empty()) {
    const WorkItem item = queue_.top();
    queue_.pop();
    Replica& replica = replicas_[item.slot];
    if (!item.speculative && replica.phase == Phase::kQueued) {
      terminate(replica, Phase::kUnfinished);
    }
  }
  std::vector<Kill> kills;
  for (Execution& execution : live_) {
    if (execution.signalled == CancelReason::kNone) {
      execution.signalled = CancelReason::kUser;
      kills.push_back({execution.id, CancelReason::kUser});
    }
  }
  return kills;
}

// Re-arms the effective per-attempt deadline from the estimator.  The armed
// value drifts with every accepted sample, so kDeadlineAdapt events fire only
// on the confidence-gate edge or a >10% move -- a journal line per sample
// would be noise, not explanation.
void ReplicaScheduler::rearm_deadline() {
  if (!options_.deadline_auto || options_.estimator == nullptr) {
    return;
  }
  const bool confident = options_.estimator->confident();
  const std::chrono::milliseconds next =
      confident ? options_.estimator->deadline(options_.deadline)
                : options_.deadline;
  if (confident) {
    report_.learned_deadline_ms = static_cast<double>(next.count());
  }
  const double previous = static_cast<double>(armed_deadline_.count());
  const double current = static_cast<double>(next.count());
  const bool edge = confident != armed_learned_;
  const bool moved = confident && !edge && previous > 0.0 &&
                     std::abs(current - previous) > 0.10 * previous;
  if (confident && (edge || moved)) {
    const EstimatorSnapshot snap = options_.estimator->stats();
    emit({SupervisionEvent::Kind::kDeadlineAdapt, 0, 0,
          FailureClass::kTransient, current,
          "adaptive deadline now " + std::to_string(next.count()) + "ms (q" +
              std::to_string(options_.estimator->options().quantile) +
              " x safety " +
              std::to_string(options_.estimator->options().safety_factor) +
              ", " + std::to_string(snap.samples) + " samples)"});
  }
  armed_deadline_ = next;
  armed_learned_ = confident;
}

// Reports circuit-breaker transitions (HalfOpen probes stay internal: the
// externally visible states are "backpressure on" and "backpressure off").
void ReplicaScheduler::publish_breaker(
    const std::vector<BreakerTransition>& moved) {
  for (const BreakerTransition& transition : moved) {
    if (transition.to == BreakerState::kOpen) {
      emit({SupervisionEvent::Kind::kBreakerOpen, 0, 0,
            FailureClass::kTransient, 0.0,
            "failure spike (" + std::to_string(transition.failures_in_window) +
                " in window): backoff x" +
                std::to_string(options_.breaker.backoff_multiplier) +
                ", width capped at " + std::to_string(width_cap()) + " of " +
                std::to_string(width_)});
    } else if (transition.to == BreakerState::kClosed) {
      emit({SupervisionEvent::Kind::kBreakerClose, 0, 0,
            FailureClass::kTransient, 0.0,
            "quiet period: full width of " + std::to_string(width_) +
                " restored"});
    }
  }
}

void ReplicaScheduler::emit(const SupervisionEvent& event) {
  const auto kind = static_cast<std::size_t>(event.kind);
  if (tallies_[kind] != nullptr) {
    ++(report_.*tallies_[kind]);
  }
  if (counters_[kind] != nullptr) {
    counters_[kind]->add();
  }
  if (options_.on_event) {
    options_.on_event(event);
  }
}

SupervisorReport ReplicaScheduler::finish(bool cancelled) {
  for (const Replica& replica : replicas_) {
    if (replica.phase == Phase::kDone) {
      ++report_.succeeded;
    } else if (replica.phase == Phase::kUnfinished) {
      ++report_.unfinished;
    }
  }
  std::sort(report_.quarantined.begin(), report_.quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return a.replica < b.replica;
            });
  report_.cancelled = cancelled;
  return std::move(report_);
}

}  // namespace divlib
