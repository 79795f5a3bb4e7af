// engine/scheduler: the supervision policy as a pure, timestamp-fed state
// machine.  A fake executor drives seeded random event schedules on a fake
// clock -- claims (and unclaims), successes, every
// failure class, drains with every CancelReason the scheduler can issue,
// worker crashes, ticks, breaker spikes, operator cancel and tasks that
// ignore it -- and checks the policy's invariants after every step and every
// round.  Each failure names its round's seed; the fuzzer is deterministic,
// so that seed replays it.
#include "engine/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/adaptive/estimator.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"

namespace divlib {
namespace {

using namespace std::chrono_literals;
using Clock = ReplicaScheduler::Clock;
using Kind = SupervisionEvent::Kind;
using Launch = ReplicaScheduler::Launch;
using Kill = ReplicaScheduler::Kill;
using ExecutionId = ReplicaScheduler::ExecutionId;

const Clock::time_point kT0 = Clock::time_point{} + std::chrono::hours(1);

// What the fake executor knows about one live execution.
struct Live {
  Launch launch;
  std::size_t worker = 0;
  Clock::time_point started;
  CancelReason signalled = CancelReason::kNone;  // its token: first kill wins
  bool deadline_killed = false;                  // a kDeadline kill arrived
};

// Per-replica claim history kept by the fake executor.
struct History {
  unsigned base = 0;
  std::optional<unsigned> last;  // last fresh attempt claimed
  bool unclaimed = false;        // `last` was handed back; may be re-claimed
  std::size_t distinct = 0;      // fresh attempt indices claimed
  unsigned successes = 0;        // on_success calls
};

struct RoundResult {
  std::vector<std::string> events;  // every event's JSON, in order
  SupervisorReport report;
  std::map<std::string, std::uint64_t> counters;
  std::size_t drained_then_killed = 0;  // kDeadline kills after a kUser one
};

class FuzzedRound {
 public:
  explicit FuzzedRound(std::uint64_t seed) : rng_(seed) {
    options_.master_seed = seed;
    options_.max_attempts = 1 + static_cast<unsigned>(rng_.uniform_below(4));
    options_.backoff_base = std::chrono::milliseconds(rng_.uniform_below(20));
    options_.backoff_cap = 50ms;
    speculation_ = rng_.uniform_below(2) == 0;  // thread- vs process-style
    if (speculation_ && rng_.uniform_below(2) == 0) {
      options_.straggler_factor = 1.5 + rng_.uniform01();
      options_.straggler_warmup = 1 + rng_.uniform_below(3);
    }
    if (rng_.uniform_below(3) == 0) {
      options_.deadline = std::chrono::milliseconds(5 + rng_.uniform_below(40));
    }
    if (rng_.uniform_below(3) == 0) {
      EstimatorOptions est;
      est.quantile = 0.5;
      est.min_samples = 2 + rng_.uniform_below(3);
      estimator_.emplace(est);
      options_.estimator = &*estimator_;
      options_.deadline_auto = rng_.uniform_below(2) == 0;
    }
    if (rng_.uniform_below(2) == 0) {
      options_.breaker_enabled = true;
      options_.breaker.failure_threshold = 1 + rng_.uniform_below(4);
      options_.breaker.window =
          std::chrono::milliseconds(10 + rng_.uniform_below(100));
      options_.breaker.cooldown =
          std::chrono::milliseconds(5 + rng_.uniform_below(50));
      options_.breaker.width_fraction = 0.25 + 0.25 * rng_.uniform_below(4);
    }
    options_.fleet.max_worker_deaths_per_replica =
        1 + static_cast<unsigned>(rng_.uniform_below(3));
    options_.metrics = &metrics_;
    options_.on_event = [this](const SupervisionEvent& event) {
      events_.push_back(event);
    };
    const std::size_t n = 1 + rng_.uniform_below(12);
    width_ = 1 + rng_.uniform_below(4);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t id = 100 + 7 * i;
      ids_.push_back(id);
      history_[id].base = rng_.uniform_below(3) == 0
                              ? static_cast<unsigned>(rng_.uniform_below(4))
                              : 0;
    }
    options_.first_attempt = [this](std::size_t id) {
      return history_.at(id).base;
    };
    workers_.assign(width_, {});
  }

  RoundResult run() {
    on_success_ = [this](std::size_t replica, std::string&& payload) {
      ++history_.at(replica).successes;
      EXPECT_EQ(payload, std::to_string(replica));
    };
    ReplicaScheduler scheduler(
        ids_, options_, on_success_, width_,
        speculation_ ? Isolation::kThread : Isolation::kProcess, kT0);
    scheduler_ = &scheduler;
    now_ = kT0;
    for (int step = 0; step < 400 && !scheduler.idle(); ++step) {
      now_ += std::chrono::milliseconds(rng_.uniform_below(6));
      random_step();
    }
    settle();
    EXPECT_TRUE(scheduler.idle()) << "schedule never drained";
    RoundResult result;
    result.report = scheduler.finish(cancelled_);
    for (const SupervisionEvent& event : events_) {
      result.events.push_back(event.to_json());
    }
    for (const InstrumentSnapshot& snap : metrics_.snapshot()) {
      result.counters[snap.name] = snap.count;
    }
    result.drained_then_killed = drained_then_killed_;
    check_round(result);
    scheduler_ = nullptr;
    return result;
  }

 private:
  std::size_t occupied() const {
    return static_cast<std::size_t>(
        std::count_if(workers_.begin(), workers_.end(),
                      [](const std::set<ExecutionId>& held) {
                        return !held.empty();
                      }));
  }

  void random_step() {
    switch (rng_.uniform_below(12)) {
      case 0:
      case 1:
      case 2:
        claim();
        break;
      case 3:
      case 4:
        if (Live* live = pick(false)) {
          succeed(*live);
        }
        break;
      case 5:
        if (Live* live = pick(false)) {
          fail(*live, static_cast<FailureClass>(rng_.uniform_below(3)));
        }
        break;
      case 6:
        if (Live* live = pick(true)) {
          drain(*live);
        }
        break;
      case 7:
        if (!speculation_) {
          if (Live* live = pick(false)) {
            crash(*live);
          }
        }
        break;
      case 8:
      case 9:
        tick();
        break;
      case 10:
        for (int spike = 0; spike < 3; ++spike) {  // breaker spike
          if (Live* live = pick(false)) {
            fail(*live, FailureClass::kTransient);
          }
        }
        break;
      default:
        if (!cancelled_ && rng_.uniform_below(25) == 0) {
          cancelled_ = true;
          deliver(scheduler_->cancel());
        }
        break;
    }
  }

  // Every live execution reaches a verdict, time runs on so backoffs expire,
  // and free workers keep claiming until the scheduler is idle.
  void settle() {
    for (int round = 0; round < 2000 && !scheduler_->idle(); ++round) {
      now_ += 100ms;
      tick();
      while (claim()) {
      }
      while (!live_.empty()) {
        Live& live = live_.begin()->second;
        if (live.signalled != CancelReason::kNone) {
          drain(live);
        } else {
          succeed(live);
        }
      }
    }
  }

  // A random live execution; with `signalled`, only one whose token fired
  // (a real task drains only then).  Hung executions are never picked.
  Live* pick(bool signalled) {
    std::vector<Live*> candidates;
    for (auto& [id, live] : live_) {
      if (!hung(live) &&
          (!signalled || live.signalled != CancelReason::kNone)) {
        candidates.push_back(&live);
      }
    }
    if (candidates.empty()) {
      return nullptr;
    }
    return candidates[rng_.uniform_below(candidates.size())];
  }

  // In process-style rounds with a deadline, a task the operator told to
  // drain hangs instead, like a worker that ignores SIGTERM but still beats:
  // only the deadline kill ends it.
  bool hung(const Live& live) const {
    return !speculation_ && options_.deadline.count() > 0 &&
           live.signalled == CancelReason::kUser && !live.deadline_killed;
  }

  bool claim() {
    const auto idle = std::find_if(
        workers_.begin(), workers_.end(),
        [](const std::set<ExecutionId>& held) { return held.empty(); });
    if (idle == workers_.end()) {
      return false;
    }
    const std::size_t busy = occupied();
    const std::optional<Launch> launch = scheduler_->claim(now_, busy);
    if (!launch.has_value()) {
      return false;
    }
    const auto worker = static_cast<std::size_t>(idle - workers_.begin());
    // The width cap: a claim never takes occupancy past it (the breaker
    // can shrink the cap below what is already running, never the reverse).
    EXPECT_LT(busy, scheduler_->width_cap()) << "claim past the width cap";
    admit(*launch, worker);
    if (!speculation_ && !launch->speculative && rng_.uniform_below(10) == 0) {
      // The assignment never reached the worker: hand it back.
      history_.at(launch->replica).unclaimed = true;
      retire(launch->execution);
      scheduler_->unclaim(launch->execution, now_);
    }
    return true;
  }

  void admit(const Launch& launch, std::size_t worker) {
    EXPECT_TRUE(live_.find(launch.execution) == live_.end());
    History& history = history_.at(launch.replica);
    if (launch.speculative) {
      EXPECT_TRUE(speculation_) << "twin from a no-speculation scheduler";
      // A twin duplicates a live primary on the SAME seed.
      const bool primary = std::any_of(
          live_.begin(), live_.end(), [&](const auto& entry) {
            return entry.second.launch.replica == launch.replica &&
                   entry.second.launch.attempt == launch.attempt &&
                   !entry.second.launch.speculative;
          });
      EXPECT_TRUE(primary) << "twin of replica " << launch.replica
                           << " attempt " << launch.attempt
                           << " has no live primary";
    } else if (history.unclaimed) {
      EXPECT_EQ(launch.attempt, *history.last) << "unclaim changed the seed";
      history.unclaimed = false;
    } else {
      // Fresh attempts run base, base+1, ...: never reused after a failure.
      const unsigned expected =
          history.last.has_value() ? *history.last + 1 : history.base;
      EXPECT_EQ(launch.attempt, expected)
          << "replica " << launch.replica << " claimed out of order";
      history.last = launch.attempt;
      ++history.distinct;
      EXPECT_LE(history.distinct, std::max(1u, options_.max_attempts))
          << "replica " << launch.replica << " ran past its attempt budget";
    }
    live_[launch.execution] = {launch, worker, now_};
    workers_[worker].insert(launch.execution);
  }

  Launch retire(ExecutionId execution) {
    const Live gone = live_.at(execution);
    live_.erase(execution);
    workers_[gone.worker].erase(execution);
    return gone.launch;
  }

  bool twin_live(const Launch& launch) const {
    return std::any_of(live_.begin(), live_.end(), [&](const auto& entry) {
      return entry.second.launch.replica == launch.replica;
    });
  }

  void succeed(Live& live) {
    const Launch launch = retire(live.launch.execution);
    deliver(scheduler_->succeeded(launch.execution, now_,
                                  std::to_string(launch.replica)));
  }

  // Checks a failure-like verdict's immediate consequences: a failure
  // deferred to a live twin consumes nothing (no event at all), and a
  // deterministic failure never schedules a retry.
  template <typename Verdict>
  void failure_verdict(const Launch& launch, bool deterministic,
                       Verdict&& verdict) {
    const bool deferred = twin_live(launch);
    const std::size_t before = events_.size();
    verdict();
    for (std::size_t i = before; i < events_.size(); ++i) {
      const SupervisionEvent& event = events_[i];
      if (deferred && event.replica == launch.replica) {
        EXPECT_EQ(event.kind, Kind::kDeadlineKill)
            << "deferred failure of replica " << launch.replica
            << " consumed budget (" << to_string(event.kind) << ")";
      }
      if (deterministic) {
        EXPECT_NE(event.kind, Kind::kRetry)
            << "deterministic failure of replica " << launch.replica
            << " retried";
      }
    }
  }

  void fail(Live& live, FailureClass failure) {
    const Launch launch = retire(live.launch.execution);
    failure_verdict(launch, failure == FailureClass::kDeterministic, [&] {
      scheduler_->failed(launch.execution, now_, failure, "boom");
    });
  }

  void crash(Live& live) {
    const Launch launch = retire(live.launch.execution);
    failure_verdict(launch, false, [&] {
      scheduler_->worker_died(launch.execution, now_, "worker crashed");
    });
  }

  void drain(Live& live) {
    CancelReason reason = live.signalled;
    if (!speculation_ && live.deadline_killed && rng_.uniform_below(2) == 0) {
      // The task ignored its token; the process executor's SIGKILL
      // escalation reports the deadline, whatever the token says.
      reason = CancelReason::kDeadline;
    }
    const Launch launch = retire(live.launch.execution);
    failure_verdict(launch, false, [&] {
      scheduler_->drained(launch.execution, now_, reason);
    });
  }

  void tick() {
    deliver(scheduler_->tick(now_));
    // A fixed deadline kills every attempt that outlives it, one the
    // operator already told to drain included: a task that ignores its
    // token must still meet the SIGKILL escalation.
    if (options_.deadline.count() > 0 && !options_.deadline_auto) {
      for (const auto& [id, live] : live_) {
        if (now_ - live.started >= options_.deadline &&
            live.signalled != CancelReason::kSuperseded) {
          EXPECT_TRUE(live.deadline_killed)
              << "replica " << live.launch.replica << " attempt "
              << live.launch.attempt << " outlived its deadline unkilled";
        }
      }
    }
  }

  void deliver(const std::vector<Kill>& kills) {
    for (const Kill& kill : kills) {
      const auto it = live_.find(kill.execution);
      ASSERT_NE(it, live_.end()) << "kill for an execution not live";
      Live& live = it->second;
      // One kill per execution, except a deadline after an operator drain.
      if (live.signalled != CancelReason::kNone) {
        EXPECT_TRUE(live.signalled == CancelReason::kUser &&
                    kill.reason == CancelReason::kDeadline &&
                    !live.deadline_killed)
            << "execution signalled twice";
        ++drained_then_killed_;
      } else {
        live.signalled = kill.reason;
      }
      live.deadline_killed |= kill.reason == CancelReason::kDeadline;
    }
  }

  void check_round(const RoundResult& result) {
    const SupervisorReport& report = result.report;
    // Every replica ends in exactly one terminal state; unfinished happens
    // only after the operator cancelled.
    std::set<std::size_t> quarantined;
    for (const QuarantineRecord& record : report.quarantined) {
      EXPECT_TRUE(quarantined.insert(record.replica).second)
          << "replica " << record.replica << " quarantined twice";
      const History& history = history_.at(record.replica);
      EXPECT_EQ(history.successes, 0u)
          << "replica " << record.replica << " both done and quarantined";
      // attempts == base + consumed, and every fresh attempt was consumed.
      EXPECT_EQ(record.attempts, history.base + history.distinct)
          << "replica " << record.replica;
    }
    std::size_t done = 0;
    for (const auto& [id, history] : history_) {
      EXPECT_LE(history.successes, 1u) << "on_success twice for " << id;
      done += history.successes;
    }
    EXPECT_EQ(report.replicas, ids_.size());
    EXPECT_EQ(report.succeeded, done);
    EXPECT_EQ(report.succeeded + report.unfinished + report.quarantined.size(),
              ids_.size());
    if (!cancelled_) {
      EXPECT_EQ(report.unfinished, 0u) << "unfinished without a cancel";
    }
    EXPECT_EQ(report.cancelled, cancelled_);
    if (!speculation_) {
      EXPECT_EQ(report.speculative_launches, 0u);
    }

    // Each report counter equals the count of its event, in the report and
    // in the registry.
    const auto count = [&](Kind kind) {
      return static_cast<std::uint64_t>(
          std::count_if(events_.begin(), events_.end(),
                        [&](const SupervisionEvent& event) {
                          return event.kind == kind;
                        }));
    };
    EXPECT_EQ(report.retries, count(Kind::kRetry));
    EXPECT_EQ(report.fail_fasts, count(Kind::kFailFast));
    EXPECT_EQ(report.deadline_kills, count(Kind::kDeadlineKill));
    EXPECT_EQ(report.speculative_launches, count(Kind::kSpeculativeLaunch));
    EXPECT_EQ(report.speculative_wins, count(Kind::kSpeculativeWin));
    EXPECT_EQ(report.quarantined.size(), count(Kind::kQuarantine));
    EXPECT_EQ(report.deadline_adapts, count(Kind::kDeadlineAdapt));
    EXPECT_EQ(report.breaker_opens, count(Kind::kBreakerOpen));
    EXPECT_EQ(report.breaker_closes, count(Kind::kBreakerClose));
    const std::pair<Kind, const char*> registry[] = {
        {Kind::kRetry, "supervisor_retries"},
        {Kind::kFailFast, "supervisor_fail_fasts"},
        {Kind::kDeadlineKill, "supervisor_deadline_kills"},
        {Kind::kSpeculativeLaunch, "supervisor_speculative_launches"},
        {Kind::kSpeculativeWin, "supervisor_speculative_wins"},
        {Kind::kQuarantine, "supervisor_quarantines"},
        {Kind::kDeadlineAdapt, "supervisor_deadline_adapts"},
        {Kind::kBreakerOpen, "supervisor_breaker_opens"},
        {Kind::kBreakerClose, "supervisor_breaker_closes"},
    };
    for (const auto& [kind, name] : registry) {
      EXPECT_EQ(result.counters.at(name), count(kind)) << name;
    }
    // The executor owns worker events; the scheduler never emits them.
    EXPECT_EQ(count(Kind::kWorkerSpawn) + count(Kind::kWorkerAlive) +
                  count(Kind::kWorkerSuspect) + count(Kind::kWorkerDead) +
                  count(Kind::kWorkerDismiss),
              0u);
  }

  Rng rng_;
  SupervisorOptions options_;
  std::optional<CompletionEstimator> estimator_;
  MetricsRegistry metrics_;
  std::function<void(std::size_t, std::string&&)> on_success_;
  std::vector<SupervisionEvent> events_;
  std::vector<std::size_t> ids_;
  std::map<std::size_t, History> history_;
  std::map<ExecutionId, Live> live_;
  std::vector<std::set<ExecutionId>> workers_;  // executions each holds
  std::size_t width_ = 1;
  bool speculation_ = true;
  bool cancelled_ = false;
  std::size_t drained_then_killed_ = 0;
  Clock::time_point now_ = kT0;
  ReplicaScheduler* scheduler_ = nullptr;
};

TEST(SchedulerPropertyTest, FuzzedSchedulesHoldEveryPolicyInvariant) {
  SupervisorReport total;
  std::size_t drained_then_killed = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RoundResult round = FuzzedRound(seed).run();
    if (::testing::Test::HasFailure()) {
      return;  // one seed's report is enough to debug from
    }
    const SupervisorReport& report = round.report;
    drained_then_killed += round.drained_then_killed;
    total.retries += report.retries;
    total.fail_fasts += report.fail_fasts;
    total.deadline_kills += report.deadline_kills;
    total.speculative_launches += report.speculative_launches;
    total.speculative_wins += report.speculative_wins;
    total.deadline_adapts += report.deadline_adapts;
    total.breaker_opens += report.breaker_opens;
    total.breaker_closes += report.breaker_closes;
    total.unfinished += report.unfinished;
    total.succeeded += report.succeeded;
    total.replicas += report.quarantined.size();
  }
  // Coverage guard: the generator must reach every policy branch, or the
  // invariants above hold vacuously.
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.fail_fasts, 0u);
  EXPECT_GT(total.deadline_kills, 0u);
  EXPECT_GT(total.speculative_launches, 0u);
  EXPECT_GT(total.speculative_wins, 0u);
  EXPECT_GT(total.deadline_adapts, 0u);
  EXPECT_GT(total.breaker_opens, 0u);
  EXPECT_GT(total.breaker_closes, 0u);
  EXPECT_GT(total.unfinished, 0u);
  EXPECT_GT(total.succeeded, 0u);
  EXPECT_GT(total.replicas, 0u) << "no quarantine in any round";
  EXPECT_GT(drained_then_killed, 0u) << "no deadline kill after a cancel";
}

TEST(SchedulerPropertyTest, SameSeedReplaysTheSameEventSequence) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RoundResult first = FuzzedRound(seed).run();
    const RoundResult second = FuzzedRound(seed).run();
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.counters, second.counters);
    EXPECT_EQ(first.report.succeeded, second.report.succeeded);
    EXPECT_EQ(first.report.backoff_wait_ms, second.report.backoff_wait_ms);
  }
}

// ---------------------------------------------------------------------------
// Targeted cases

SupervisorOptions breaker_options() {
  SupervisorOptions options;
  options.max_attempts = 3;
  options.backoff_base = 0ms;
  options.breaker_enabled = true;
  options.breaker.failure_threshold = 1;
  options.breaker.window = 10'000ms;
  options.breaker.cooldown = 100ms;
  return options;
}

TEST(SchedulerTest, OpenBreakerHoldsClaimsAtTheCapUntilCooldown) {
  const SupervisorOptions options = breaker_options();
  const std::vector<std::size_t> ids = {0, 1, 2, 3, 4, 5};
  const std::function<void(std::size_t, std::string&&)> sink =
      [](std::size_t, std::string&&) {};
  ReplicaScheduler scheduler(ids, options, sink, 4, Isolation::kThread, kT0);
  std::vector<Launch> running;
  for (std::size_t busy = 0; busy < 4; ++busy) {
    running.push_back(*scheduler.claim(kT0, busy));
  }
  scheduler.failed(running[0].execution, kT0, FailureClass::kTransient, "x");
  EXPECT_EQ(scheduler.width_cap(), 2u);  // Open: half of four
  // Three workers still hold attempts: nothing more may start.
  EXPECT_FALSE(scheduler.claim(kT0, 3).has_value());
  EXPECT_EQ(scheduler.wake_at(3), Clock::time_point::max());
  EXPECT_TRUE(scheduler.claim(kT0, 1).has_value());
  // The cooldown reopens full width.
  EXPECT_TRUE(scheduler.tick(kT0 + 150ms).empty());
  EXPECT_EQ(scheduler.width_cap(), 4u);
  EXPECT_TRUE(scheduler.claim(kT0 + 150ms, 3).has_value());
}

TEST(SchedulerTest, UnclaimRequeuesTheSameAttemptWithoutConsuming) {
  SupervisorOptions options;
  options.max_attempts = 1;
  std::vector<SupervisionEvent> events;
  options.on_event = [&](const SupervisionEvent& event) {
    events.push_back(event);
  };
  const std::vector<std::size_t> ids = {9};
  std::vector<std::string> payloads;
  const std::function<void(std::size_t, std::string&&)> sink =
      [&](std::size_t, std::string&& payload) {
        payloads.push_back(std::move(payload));
      };
  ReplicaScheduler scheduler(ids, options, sink, 1, Isolation::kProcess, kT0);
  const Launch first = *scheduler.claim(kT0, 0);
  scheduler.unclaim(first.execution, kT0);
  const Launch again = *scheduler.claim(kT0, 0);
  EXPECT_EQ(again.replica, 9u);
  EXPECT_EQ(again.attempt, first.attempt);
  EXPECT_NE(again.execution, first.execution);
  EXPECT_TRUE(scheduler.succeeded(again.execution, kT0 + 1ms, "ok").empty());
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(payloads, std::vector<std::string>{"ok"});
  EXPECT_TRUE(scheduler.idle());
}

TEST(SchedulerTest, NthWorkerDeathOnOneReplicaIsDeterministic) {
  SupervisorOptions options;
  options.max_attempts = 5;
  options.backoff_base = 0ms;
  options.fleet.max_worker_deaths_per_replica = 2;
  const std::vector<std::size_t> ids = {3};
  const std::function<void(std::size_t, std::string&&)> sink =
      [](std::size_t, std::string&&) {};
  ReplicaScheduler scheduler(ids, options, sink, 1, Isolation::kProcess, kT0);
  scheduler.worker_died(scheduler.claim(kT0, 0)->execution, kT0, "crash");
  scheduler.worker_died(scheduler.claim(kT0, 0)->execution, kT0, "crash");
  const SupervisorReport report = scheduler.finish(false);
  EXPECT_EQ(report.retries, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].failure, FailureClass::kDeterministic);
  EXPECT_EQ(report.quarantined[0].attempts, 2u);
}

}  // namespace
}  // namespace divlib
