#include "engine/supervisor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "engine/fleet.hpp"
#include "engine/montecarlo.hpp"
#include "engine/scheduler.hpp"
#include "obs/jsonl.hpp"

namespace divlib {

namespace {

using Clock = std::chrono::steady_clock;

// Monitor poll cadence: bounds the deadline-kill and cancel-propagation
// latency.  5ms is invisible next to a replica run but keeps the idle scan
// (a walk over the in-flight list) essentially free.
constexpr std::chrono::milliseconds kMonitorPoll{5};

}  // namespace

const char* to_string(FailureClass failure) {
  switch (failure) {
    case FailureClass::kTransient:
      return "transient";
    case FailureClass::kResource:
      return "resource";
    case FailureClass::kDeterministic:
      return "deterministic";
  }
  return "unknown";
}

FailureClass parse_failure_class(std::string_view name) {
  for (const FailureClass failure :
       {FailureClass::kTransient, FailureClass::kResource,
        FailureClass::kDeterministic}) {
    if (name == to_string(failure)) {
      return failure;
    }
  }
  throw std::invalid_argument("unknown failure class '" + std::string(name) +
                              "'");
}

FailureClass classify_failure(const std::exception& error) {
  // Order matters only for documentation: the three bases are disjoint.
  // system_error subsumes std::ios_base::failure (C++11 and later), so all
  // I/O failures land in kResource without naming iostreams here.
  if (dynamic_cast<const std::bad_alloc*>(&error) != nullptr ||
      dynamic_cast<const std::system_error*>(&error) != nullptr) {
    return FailureClass::kResource;
  }
  if (dynamic_cast<const std::logic_error*>(&error) != nullptr) {
    return FailureClass::kDeterministic;
  }
  return FailureClass::kTransient;
}

const char* to_string(Isolation isolation) {
  switch (isolation) {
    case Isolation::kThread:
      return "thread";
    case Isolation::kProcess:
      return "process";
  }
  return "unknown";
}

Isolation parse_isolation(std::string_view name) {
  for (const Isolation isolation : {Isolation::kThread, Isolation::kProcess}) {
    if (name == to_string(isolation)) {
      return isolation;
    }
  }
  throw std::invalid_argument("unknown isolation mode '" + std::string(name) +
                              "' (expected 'thread' or 'process')");
}

const char* to_string(SupervisionEvent::Kind kind) {
  switch (kind) {
    case SupervisionEvent::Kind::kRetry:
      return "retry";
    case SupervisionEvent::Kind::kFailFast:
      return "fail-fast";
    case SupervisionEvent::Kind::kDeadlineKill:
      return "deadline-kill";
    case SupervisionEvent::Kind::kSpeculativeLaunch:
      return "speculative-launch";
    case SupervisionEvent::Kind::kSpeculativeWin:
      return "speculative-win";
    case SupervisionEvent::Kind::kQuarantine:
      return "quarantine";
    case SupervisionEvent::Kind::kWorkerSpawn:
      return "worker-spawn";
    case SupervisionEvent::Kind::kWorkerAlive:
      return "worker-alive";
    case SupervisionEvent::Kind::kWorkerSuspect:
      return "worker-suspect";
    case SupervisionEvent::Kind::kWorkerDead:
      return "worker-dead";
    case SupervisionEvent::Kind::kWorkerDismiss:
      return "worker-dismiss";
    case SupervisionEvent::Kind::kDeadlineAdapt:
      return "deadline-adapt";
    case SupervisionEvent::Kind::kBreakerOpen:
      return "breaker-open";
    case SupervisionEvent::Kind::kBreakerClose:
      return "breaker-close";
  }
  return "unknown";
}

std::string SupervisionEvent::to_json() const {
  JsonObject object;
  object.field("kind", to_string(kind))
      .field("replica", static_cast<std::uint64_t>(replica))
      .field("attempt", static_cast<std::uint64_t>(attempt))
      .field("failure", to_string(failure))
      .field("backoff_ms", backoff_ms)
      .field("detail", detail);
  if (worker >= 0) {
    object.field("worker", static_cast<std::uint64_t>(worker));
  }
  return object.str();
}

namespace {

using ExecutionId = ReplicaScheduler::ExecutionId;

// The thread executor.  Worker threads claim attempts and run them, each
// under a private CancelToken; the calling thread is the monitor that feeds
// the scheduler's clock and fires the tokens it names.  Every policy
// decision -- which attempt, when, and what its verdict means -- comes from
// the ReplicaScheduler, always called under mu_.
//
// The caller's callbacks never run under mu_.  The scheduler hands accepted
// payloads and events to stashes; the thread whose verdict (or tick) filled
// them delivers them after dropping the lock and before it claims again --
// events one at a time in emission order, payloads concurrently across
// workers, so a journal's group commit can share one fsync among them.  A
// callback that throws ends the run: claims stop as under an operator
// cancel, in-flight attempts drain, the pool joins, and the first error is
// rethrown.
class SupervisorRun {
 public:
  SupervisorRun(std::span<const std::size_t> replica_ids,
                const SupervisedTask& task,
                const std::function<void(std::size_t, std::string&&)>&
                    on_success,
                const SupervisorOptions& options)
      : task_(task),
        on_success_(on_success),
        options_(options),
        workers_(static_cast<unsigned>(std::min<std::size_t>(
            resolve_thread_count(options.num_threads), replica_ids.size()))),
        stash_payload_([this](std::size_t replica, std::string&& payload) {
          accepted_.emplace_back(replica, std::move(payload));
        }),
        scheduled_(stash_events(options)),
        scheduler_(replica_ids, scheduled_, stash_payload_, workers_,
                   Isolation::kThread, Clock::now()) {
    if (options_.metrics != nullptr) {
      batch_groups_counter_ =
          &options_.metrics->counter("supervisor_batch_groups");
      batched_attempts_counter_ =
          &options_.metrics->counter("supervisor_batched_attempts");
    }
  }

  SupervisorReport run() {
    if (scheduler_.finished()) {
      return scheduler_.finish(false);  // empty batch
    }
    if (options_.cancel != nullptr && options_.cancel->requested()) {
      // Preset cancel: nothing starts, everything re-runs on resume --
      // the isolated driver's claim-nothing behavior.
      scheduler_.cancel();
      return scheduler_.finish(true);
    }
    std::vector<std::thread> pool;
    pool.reserve(workers_);
    for (unsigned i = 0; i < workers_; ++i) {
      pool.emplace_back([this] { worker_loop(); });
    }
    monitor_loop();
    for (std::thread& thread : pool) {
      thread.join();
    }
    if (error_) {
      std::rethrow_exception(error_);
    }
    SupervisorReport report = scheduler_.finish(
        options_.cancel != nullptr && options_.cancel->requested());
    report.batch_groups = batch_groups_;
    report.batched_attempts = batched_attempts_;
    return report;
  }

 private:
  // The scheduler's view of the options: on_event feeds the stash.
  SupervisorOptions stash_events(const SupervisorOptions& options) {
    SupervisorOptions scheduled = options;
    if (options.on_event) {
      scheduled.on_event = [this](const SupervisionEvent& event) {
        events_.push_back(event);
      };
    }
    return scheduled;
  }

  void fire_locked(const std::vector<ReplicaScheduler::Kill>& kills) {
    for (const ReplicaScheduler::Kill& kill : kills) {
      tokens_.at(kill.execution).request(kill.reason);
    }
  }

  // Hands a fired operator token to the scheduler (once).  Workers call
  // this before every claim and every verdict, not only the 5ms monitor: a
  // worker that retakes the mutex straight after a trivial attempt could
  // otherwise starve the monitor and keep claiming, and a failure recorded
  // after the token fired must not be retried.
  void observe_cancel_locked() {
    if (!scheduler_.cancelled() && options_.cancel != nullptr &&
        options_.cancel->requested()) {
      fire_locked(scheduler_.cancel());
    }
  }

  // A callback threw: keep the first error and drain like an operator
  // cancel, so no new attempt starts and the run can end.
  void fail_locked(std::exception_ptr error) {
    if (!error_) {
      error_ = std::move(error);
    }
    if (!scheduler_.cancelled()) {
      fire_locked(scheduler_.cancel());
    }
    work_cv_.notify_all();
    monitor_cv_.notify_one();
  }

  // Hands one attempt's verdict to the scheduler: a payload, a classified
  // failure, or (neither) a drain whose meaning the token's reason carries.
  void record_locked(ExecutionId execution, std::optional<std::string> payload,
                     const std::optional<AttemptFailure>& failure) {
    observe_cancel_locked();
    const auto now = Clock::now();
    const CancelReason reason = tokens_.at(execution).reason();
    tokens_.erase(execution);
    if (payload.has_value()) {
      fire_locked(scheduler_.succeeded(execution, now, std::move(*payload)));
    } else if (failure.has_value()) {
      scheduler_.failed(execution, now, failure->failure, failure->message);
    } else {
      scheduler_.drained(execution, now, reason);
    }
  }

  // Runs the caller's callbacks on what the stashes hold, with mu_ released
  // (entered and left holding it).  Events go first, under event_mu_, which
  // the thread holds from taking the pending batch until it is delivered:
  // the stream stays in emission order, and events pending when this thread
  // looked are delivered -- by it or by whoever took them -- before it
  // returns.  Then this thread's accepted payloads, concurrently with other
  // workers' deliveries.
  void deliver(std::unique_lock<std::mutex>& lock) {
    std::vector<std::pair<std::size_t, std::string>> accepted;
    accepted.swap(accepted_);
    const bool events_pending = !events_.empty();
    if (accepted.empty() && !events_pending) {
      return;
    }
    lock.unlock();
    try {
      if (events_pending) {
        const std::lock_guard<std::mutex> order(event_mu_);
        std::vector<SupervisionEvent> events;
        lock.lock();
        events.swap(events_);
        lock.unlock();
        for (const SupervisionEvent& event : events) {
          options_.on_event(event);
        }
      }
      for (auto& [replica, payload] : accepted) {
        on_success_(replica, std::move(payload));
      }
    } catch (...) {
      lock.lock();
      fail_locked(std::current_exception());
      return;
    }
    lock.lock();
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      observe_cancel_locked();
      if (scheduler_.finished() || error_) {
        return;
      }
      const auto now = Clock::now();
      const std::optional<ReplicaScheduler::Launch> launch =
          scheduler_.claim(now, busy_);
      if (!launch.has_value()) {
        // Nothing claimable: sleep until the earliest backoff expires, or
        // until a verdict, a tick or a cancel notifies.
        const Clock::time_point wake = scheduler_.wake_at(busy_);
        if (wake == Clock::time_point::max()) {
          work_cv_.wait(lock);
        } else {
          work_cv_.wait_until(lock, wake);
        }
        continue;
      }
      ++busy_;
      tokens_.try_emplace(launch->execution);
      std::vector<ReplicaScheduler::Launch> group;
      if (!launch->speculative && options_.batch_lanes > 1 &&
          options_.batch_task) {
        // Lock-step batching: the claim absorbs up to batch_lanes - 1 more
        // ready fresh attempts; the whole group occupies this one worker.
        group.push_back(*launch);
        while (group.size() < options_.batch_lanes) {
          const std::optional<ReplicaScheduler::Launch> mate =
              scheduler_.claim_mate(now);
          if (!mate.has_value()) {
            break;
          }
          tokens_.try_emplace(mate->execution);
          group.push_back(*mate);
        }
      }
      try {
        // A verdict can throw only out of a callback the scheduler calls
        // inline: the estimator's observer.
        if (group.size() > 1) {
          run_group(lock, group);
        } else {
          run_scalar(lock, *launch);
        }
      } catch (...) {
        if (!lock.owns_lock()) {
          lock.lock();
        }
        fail_locked(std::current_exception());
      }
      --busy_;
      work_cv_.notify_all();
      monitor_cv_.notify_one();
      deliver(lock);
    }
  }

  void run_scalar(std::unique_lock<std::mutex>& lock,
                  const ReplicaScheduler::Launch& launch) {
    const CancelToken& token = tokens_.at(launch.execution);
    lock.unlock();
    std::optional<std::string> payload;
    const std::optional<AttemptFailure> failure =
        catch_attempt_failure(options_, [&] {
          Rng rng(Rng::retry_seed(options_.master_seed, launch.replica,
                                  launch.attempt));
          payload = task_(launch.replica, rng, token);
        });
    lock.lock();
    record_locked(launch.execution, std::move(payload), failure);
  }

  // Dispatches a lock-step group through options_.batch_task.  Every lane
  // keeps its own token and verdict; a throw fails every lane with one
  // shared classification (the lanes shared the execution that died).
  void run_group(std::unique_lock<std::mutex>& lock,
                 const std::vector<ReplicaScheduler::Launch>& group) {
    ++batch_groups_;
    batched_attempts_ += group.size();
    if (batch_groups_counter_ != nullptr) {
      batch_groups_counter_->add();
      batched_attempts_counter_->add(static_cast<std::uint64_t>(group.size()));
    }
    std::vector<BatchLane> lanes(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      lanes[i].replica = group[i].replica;
      lanes[i].seed = Rng::retry_seed(options_.master_seed, group[i].replica,
                                      group[i].attempt);
      lanes[i].cancel = &tokens_.at(group[i].execution);
    }
    lock.unlock();
    std::vector<std::optional<std::string>> verdicts;
    std::optional<AttemptFailure> failure = catch_attempt_failure(
        options_, [&] { verdicts = options_.batch_task(lanes); });
    if (!failure.has_value() && verdicts.size() != lanes.size()) {
      failure = AttemptFailure{
          FailureClass::kDeterministic,
          "batch_task returned " + std::to_string(verdicts.size()) +
              " verdicts for " + std::to_string(lanes.size()) + " lanes"};
    }
    lock.lock();
    for (std::size_t i = 0; i < group.size(); ++i) {
      record_locked(group[i].execution,
                    failure.has_value() ? std::nullopt : std::move(verdicts[i]),
                    failure);
    }
  }

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    // After a callback error the pool only drains: stop once no worker
    // holds an attempt (the scheduler may never see every verdict).
    while (!scheduler_.idle() && !(error_ && busy_ == 0)) {
      observe_cancel_locked();
      fire_locked(scheduler_.tick(Clock::now()));
      // Idle workers re-try their claim: the tick may have queued a twin
      // or lifted the breaker's width cap.
      work_cv_.notify_all();
      deliver(lock);
      monitor_cv_.wait_for(lock, kMonitorPoll);
    }
    work_cv_.notify_all();
  }

  const SupervisedTask& task_;
  const std::function<void(std::size_t, std::string&&)>& on_success_;
  const SupervisorOptions& options_;
  const unsigned workers_;
  // The scheduler's on_success and options (declared before scheduler_,
  // which keeps references to both).
  const std::function<void(std::size_t, std::string&&)> stash_payload_;
  const SupervisorOptions scheduled_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable monitor_cv_;
  ReplicaScheduler scheduler_;
  // Stashed callbacks awaiting delivery outside mu_ (guarded by mu_).
  std::vector<std::pair<std::size_t, std::string>> accepted_;
  std::vector<SupervisionEvent> events_;
  std::mutex event_mu_;  // one event delivery at a time, in order
  std::exception_ptr error_;  // the first callback error
  // Each in-flight attempt's private lease token.  Map nodes never move, so
  // a task polls its token lock-free while other entries come and go.
  std::map<ExecutionId, CancelToken> tokens_;
  std::size_t busy_ = 0;  // workers holding an attempt (a group counts once)
  std::uint64_t batch_groups_ = 0;
  std::uint64_t batched_attempts_ = 0;
  Counter* batch_groups_counter_ = nullptr;
  Counter* batched_attempts_counter_ = nullptr;
};

}  // namespace

SupervisorReport run_supervised_set(
    std::span<const std::size_t> replica_ids, const SupervisedTask& task,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    const SupervisorOptions& options) {
  // Same bound divsim enforces on --batch-lanes: a zero or absurd lane
  // count is a caller bug, not a tunable.
  if (options.batch_lanes == 0 || options.batch_lanes > kMaxBatchLanes) {
    throw std::invalid_argument(
        "run_supervised_set: batch_lanes must be in [1, " +
        std::to_string(kMaxBatchLanes) + "], got " +
        std::to_string(options.batch_lanes));
  }
  if (options.isolation == Isolation::kProcess) {
    return run_fleet_set(replica_ids, task, on_success, options);
  }
  return SupervisorRun(replica_ids, task, on_success, options).run();
}

}  // namespace divlib
