// engine/fleet: the process-isolated campaign executor.  These tests fork
// real worker processes and crash them on purpose, proving the two contracts
// the fleet exists for:
//
//   * Crash barrier -- a replica that SIGKILLs / SIGSEGVs / wedges its
//     worker costs that worker, never the campaign; repeated crashes on one
//     replica quarantine the replica.
//   * Determinism -- healthy replicas produce payloads bit-identical to
//     Isolation::kThread, because both modes run the same
//     Rng::retry_seed(master, replica, attempt) streams.
//
// Tasks run inside forked children here: no gtest assertions, no shared
// state with the parent -- everything a task "reports" must travel through
// its payload, an error frame, or its own death.
#include "engine/fleet.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cancel.hpp"
#include "engine/campaign.hpp"
#include "engine/supervisor.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::optional<std::string> rng_payload(std::size_t replica, Rng& rng) {
  return "r" + std::to_string(replica) + ":" + std::to_string(rng.next());
}

SupervisedTask healthy_task() {
  return [](std::size_t replica, Rng& rng, const CancelToken&) {
    return rng_payload(replica, rng);
  };
}

std::vector<std::size_t> iota_ids(std::size_t n) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

struct Collector {
  std::vector<std::optional<std::string>> payloads;
  explicit Collector(std::size_t n) : payloads(n) {}
  std::function<void(std::size_t, std::string&&)> sink() {
    return [this](std::size_t replica, std::string&& payload) {
      payloads[replica] = std::move(payload);
    };
  }
};

// Which attempt is this?  The task only sees its Rng, but the stream is
// keyed by (master, replica, attempt), so probing the candidate seeds
// recovers the index.  Must run before the task consumes any randomness.
unsigned attempt_of(std::uint64_t master, std::size_t replica, const Rng& rng,
                    unsigned limit = 8) {
  for (unsigned attempt = 0; attempt < limit; ++attempt) {
    const Rng probe(Rng::retry_seed(master, replica, attempt));
    if (probe.state() == rng.state()) {
      return attempt;
    }
  }
  return limit;
}

// The payload an attempt of `replica` at index `attempt` must produce.
std::string expected_payload(std::uint64_t master, std::size_t replica,
                             unsigned attempt = 0) {
  Rng rng(Rng::retry_seed(master, replica, attempt));
  return *rng_payload(replica, rng);
}

SupervisorOptions fleet_options(std::uint64_t master, unsigned workers) {
  SupervisorOptions options;
  options.master_seed = master;
  options.isolation = Isolation::kProcess;
  options.fleet.workers = workers;
  options.fleet.heartbeat_interval = 20ms;
  options.fleet.suspect_after = 400ms;
  options.fleet.dead_after = 1500ms;
  options.backoff_base = 1ms;  // keep crash-retry tests fast
  return options;
}

struct EventLog {
  std::mutex mu;
  std::vector<SupervisionEvent> events;
  std::function<void(const SupervisionEvent&)> sink() {
    return [this](const SupervisionEvent& event) {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(event);
    };
  }
  std::size_t count(SupervisionEvent::Kind kind) {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto& event : events) {
      n += event.kind == kind ? 1 : 0;
    }
    return n;
  }
};

TEST(FleetTest, HealthyFleetMatchesThreadIsolationBitForBit) {
  constexpr std::uint64_t kMaster = 20260807;
  const std::size_t n = 16;

  SupervisorOptions thread_options;
  thread_options.master_seed = kMaster;
  thread_options.num_threads = 4;
  Collector expected(n);
  run_supervised_set(iota_ids(n), healthy_task(), expected.sink(),
                     thread_options);

  SupervisorOptions options = fleet_options(kMaster, 4);
  Collector got(n);
  const SupervisorReport report =
      run_supervised_set(iota_ids(n), healthy_task(), got.sink(), options);

  EXPECT_EQ(report.replicas, n);
  EXPECT_EQ(report.succeeded, n);
  EXPECT_EQ(report.unfinished, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.retries, 0u);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GE(report.worker_spawns, 1u);
  EXPECT_EQ(report.worker_deaths, 0u);
  for (std::size_t replica = 0; replica < n; ++replica) {
    ASSERT_TRUE(got.payloads[replica].has_value()) << "replica " << replica;
    EXPECT_EQ(*got.payloads[replica], *expected.payloads[replica])
        << "replica " << replica;
  }
}

// One scheduler decides for both executors, so the same failures must draw
// the same policy decisions under either isolation: the same events (the
// fleet's own worker-* events aside), report counters and payloads.
TEST(FleetTest, PolicyEventsMatchThreadIsolation) {
  constexpr std::uint64_t kMaster = 20261017;
  const std::size_t n = 8;
  const SupervisedTask task = [](std::size_t replica, Rng& rng,
                                 const CancelToken&)
      -> std::optional<std::string> {
    if (replica == 2 && attempt_of(kMaster, replica, rng) == 0) {
      throw std::runtime_error("transient glitch");
    }
    if (replica == 5) {
      throw std::logic_error("replica 5 always fails");
    }
    return rng_payload(replica, rng);
  };
  using Decision = std::tuple<std::string, std::size_t, unsigned, std::string,
                              double, std::string>;
  struct Outcome {
    SupervisorReport report;
    std::multiset<Decision> decisions;
    std::vector<std::optional<std::string>> payloads;
  };
  const auto run = [&](SupervisorOptions options) {
    options.max_attempts = 3;
    EventLog log;
    options.on_event = log.sink();
    Collector got(n);
    Outcome outcome;
    outcome.report = run_supervised_set(iota_ids(n), task, got.sink(), options);
    for (const SupervisionEvent& event : log.events) {
      const std::string kind = to_string(event.kind);
      if (kind.rfind("worker-", 0) != 0) {
        outcome.decisions.insert({kind, event.replica, event.attempt,
                                  to_string(event.failure), event.backoff_ms,
                                  event.detail});
      }
    }
    outcome.payloads = got.payloads;
    return outcome;
  };

  SupervisorOptions thread_options;
  thread_options.master_seed = kMaster;
  thread_options.num_threads = 2;
  thread_options.backoff_base = 1ms;
  const Outcome thread = run(thread_options);
  const Outcome process = run(fleet_options(kMaster, 2));

  EXPECT_EQ(thread.decisions.size(), 3u);  // retry, fail-fast, quarantine
  EXPECT_EQ(thread.decisions, process.decisions);
  const SupervisorReport& a = thread.report;
  const SupervisorReport& b = process.report;
  EXPECT_EQ(a.replicas, b.replicas);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.fail_fasts, b.fail_fasts);
  EXPECT_EQ(a.deadline_kills, b.deadline_kills);
  EXPECT_EQ(a.speculative_launches, b.speculative_launches);
  EXPECT_EQ(a.speculative_wins, b.speculative_wins);
  EXPECT_EQ(a.deadline_adapts, b.deadline_adapts);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.breaker_closes, b.breaker_closes);
  EXPECT_EQ(a.backoff_wait_ms, b.backoff_wait_ms);
  EXPECT_EQ(a.cancelled, b.cancelled);
  ASSERT_EQ(a.quarantined.size(), 1u);
  ASSERT_EQ(b.quarantined.size(), 1u);
  EXPECT_EQ(a.quarantined[0].replica, b.quarantined[0].replica);
  EXPECT_EQ(a.quarantined[0].attempts, b.quarantined[0].attempts);
  EXPECT_EQ(a.quarantined[0].failure, b.quarantined[0].failure);
  EXPECT_EQ(a.quarantined[0].message, b.quarantined[0].message);
  EXPECT_EQ(thread.payloads, process.payloads);
  ASSERT_TRUE(process.payloads[2].has_value());
  EXPECT_EQ(*process.payloads[2], expected_payload(kMaster, 2, 1));
}

// Regression: a heartbeat cadence at/above suspect_after used to flap every
// healthy worker through Suspect on each beat gap.  The fleet now clamps the
// cadence inside the suspect window (with a stderr warning), so a healthy
// run under a flappy configuration sees ZERO suspect transitions.
TEST(FleetTest, FlappyHeartbeatCadenceIsClampedNotTrusted) {
  constexpr std::uint64_t kMaster = 20260808;
  const std::size_t n = 8;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.fleet.heartbeat_interval = 600ms;  // >= suspect_after: would flap
  options.fleet.suspect_after = 400ms;
  options.fleet.dead_after = 1500ms;
  EventLog log;
  options.on_event = log.sink();
  Collector got(n);
  const SupervisorReport report =
      run_supervised_set(iota_ids(n), healthy_task(), got.sink(), options);
  EXPECT_EQ(report.succeeded, n);
  EXPECT_EQ(report.worker_suspects, 0u);
  EXPECT_EQ(report.worker_deaths, 0u);
  EXPECT_EQ(log.count(SupervisionEvent::Kind::kWorkerSuspect), 0u);
  for (std::size_t replica = 0; replica < n; ++replica) {
    ASSERT_TRUE(got.payloads[replica].has_value()) << "replica " << replica;
    EXPECT_EQ(*got.payloads[replica], expected_payload(kMaster, replica))
        << "replica " << replica;
  }
}

TEST(FleetTest, SpawnAndAliveSurfaceAsEventsAndCounters) {
  constexpr std::uint64_t kMaster = 99;
  SupervisorOptions options = fleet_options(kMaster, 2);
  MetricsRegistry metrics;
  options.metrics = &metrics;
  EventLog log;
  options.on_event = log.sink();
  Collector got(6);
  const SupervisorReport report =
      run_supervised_set(iota_ids(6), healthy_task(), got.sink(), options);

  EXPECT_EQ(report.succeeded, 6u);
  const std::size_t spawns = log.count(SupervisionEvent::Kind::kWorkerSpawn);
  const std::size_t alives = log.count(SupervisionEvent::Kind::kWorkerAlive);
  EXPECT_GE(spawns, 2u);
  EXPECT_GE(alives, 2u);
  EXPECT_EQ(metrics.counter("fleet_worker_spawns").value(), spawns);
  EXPECT_EQ(metrics.counter("fleet_worker_alive").value(), alives);
  EXPECT_EQ(report.worker_spawns, spawns);
  // Every fleet event names its worker.
  std::lock_guard<std::mutex> lock(log.mu);
  for (const auto& event : log.events) {
    if (event.kind == SupervisionEvent::Kind::kWorkerSpawn ||
        event.kind == SupervisionEvent::Kind::kWorkerAlive) {
      EXPECT_GE(event.worker, 0);
      EXPECT_NE(event.to_json().find("\"worker\""), std::string::npos);
    }
  }
}

TEST(FleetTest, CrashOnFirstAttemptRetriesOnFreshSeed) {
  constexpr std::uint64_t kMaster = 404;
  const std::size_t n = 4;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.max_attempts = 3;
  options.fleet.max_worker_deaths_per_replica = 3;
  EventLog log;
  options.on_event = log.sink();
  Collector got(n);
  const SupervisorReport report = run_supervised_set(
      iota_ids(n),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 1 && attempt_of(kMaster, replica, rng) == 0) {
          std::raise(SIGKILL);  // die without a trace: no frame, no unwind
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  EXPECT_EQ(report.succeeded, n);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_GE(report.retries, 1u);
  EXPECT_GE(report.worker_deaths, 1u);
  EXPECT_GE(log.count(SupervisionEvent::Kind::kWorkerDead), 1u);
  EXPECT_GE(log.count(SupervisionEvent::Kind::kRetry), 1u);
  // The survivor ran attempt 1's stream, not a replay of attempt 0's.
  ASSERT_TRUE(got.payloads[1].has_value());
  EXPECT_EQ(*got.payloads[1], expected_payload(kMaster, 1, 1));
  for (const std::size_t replica : {0u, 2u, 3u}) {
    ASSERT_TRUE(got.payloads[replica].has_value());
    EXPECT_EQ(*got.payloads[replica], expected_payload(kMaster, replica));
  }
}

TEST(FleetTest, RepeatedCrashesQuarantineTheReplicaOnly) {
  constexpr std::uint64_t kMaster = 505;
  const std::size_t n = 6;
  SupervisorOptions options = fleet_options(kMaster, 3);
  options.max_attempts = 5;
  options.fleet.max_worker_deaths_per_replica = 2;
  EventLog log;
  options.on_event = log.sink();
  Collector got(n);
  const SupervisorReport report = run_supervised_set(
      iota_ids(n),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 2) {
          std::raise(SIGSEGV);  // every attempt crashes: a reproducible bug
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  // The second death on replica 2 reclassified the crash deterministic.
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].replica, 2u);
  EXPECT_EQ(report.quarantined[0].failure, FailureClass::kDeterministic);
  EXPECT_EQ(report.quarantined[0].attempts, 2u);
  EXPECT_GE(report.worker_deaths, 2u);
  EXPECT_GE(log.count(SupervisionEvent::Kind::kQuarantine), 1u);
  EXPECT_FALSE(got.payloads[2].has_value());
  // The crash barrier held: every other replica finished bit-identically.
  EXPECT_EQ(report.succeeded, n - 1);
  for (std::size_t replica = 0; replica < n; ++replica) {
    if (replica == 2) {
      continue;
    }
    ASSERT_TRUE(got.payloads[replica].has_value()) << "replica " << replica;
    EXPECT_EQ(*got.payloads[replica], expected_payload(kMaster, replica))
        << "replica " << replica;
  }
}

TEST(FleetTest, BadAllocBecomesResourceErrorFrameAndRetries) {
  constexpr std::uint64_t kMaster = 606;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.max_attempts = 3;
  EventLog log;
  options.on_event = log.sink();
  Collector got(3);
  const SupervisorReport report = run_supervised_set(
      iota_ids(3),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 0 && attempt_of(kMaster, replica, rng) == 0) {
          throw std::bad_alloc{};  // caught in the worker, NOT a crash
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  EXPECT_EQ(report.succeeded, 3u);
  EXPECT_GE(report.retries, 1u);
  // An exception the worker can catch costs an attempt, never the worker.
  EXPECT_EQ(report.worker_deaths, 0u);
  bool saw_resource_retry = false;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (const auto& event : log.events) {
      saw_resource_retry =
          saw_resource_retry ||
          (event.kind == SupervisionEvent::Kind::kRetry &&
           event.failure == FailureClass::kResource && event.replica == 0);
    }
  }
  EXPECT_TRUE(saw_resource_retry);
  EXPECT_EQ(*got.payloads[0], expected_payload(kMaster, 0, 1));
}

TEST(FleetTest, ThrownLogicErrorFailsFastToQuarantine) {
  constexpr std::uint64_t kMaster = 707;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.max_attempts = 4;
  Collector got(3);
  const SupervisorReport report = run_supervised_set(
      iota_ids(3),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 1) {
          throw std::logic_error("deterministic bug");
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].replica, 1u);
  EXPECT_EQ(report.quarantined[0].failure, FailureClass::kDeterministic);
  // Fail fast: one attempt consumed despite the budget of four.
  EXPECT_EQ(report.quarantined[0].attempts, 1u);
  EXPECT_EQ(report.fail_fasts, 1u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_NE(report.quarantined[0].message.find("deterministic bug"),
            std::string::npos);
}

TEST(FleetTest, DeadlineDrainsCooperativelyAndRetries) {
  constexpr std::uint64_t kMaster = 808;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.max_attempts = 3;
  options.deadline = 50ms;
  Collector got(2);
  const SupervisorReport report = run_supervised_set(
      iota_ids(2),
      [](std::size_t replica, Rng& rng,
         const CancelToken& cancel) -> std::optional<std::string> {
        if (replica == 1 && attempt_of(kMaster, replica, rng) == 0) {
          // Well-behaved straggler: polls its token like the real engines.
          for (int i = 0; i < 4000; ++i) {
            if (cancel.requested()) {
              return std::nullopt;
            }
            std::this_thread::sleep_for(2ms);
          }
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  EXPECT_EQ(report.succeeded, 2u);
  EXPECT_GE(report.deadline_kills, 1u);
  // The drain usually lands well inside the SIGKILL grace, keeping
  // worker_deaths at zero -- but on a loaded machine the escalation may fire
  // first, which is equally correct fleet behavior, so neither outcome is
  // asserted.  What IS load-independent: the replica retried on the fresh
  // attempt-1 stream either way.
  EXPECT_EQ(*got.payloads[1], expected_payload(kMaster, 1, 1));
}

TEST(FleetTest, HungWorkerIsKilledAfterTheGracePeriod) {
  constexpr std::uint64_t kMaster = 909;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.max_attempts = 3;
  options.deadline = 50ms;
  options.fleet.dead_after = 300ms;  // SIGKILL grace after the SIGUSR1
  options.fleet.max_worker_deaths_per_replica = 3;
  Collector got(2);
  const SupervisorReport report = run_supervised_set(
      iota_ids(2),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 0 && attempt_of(kMaster, replica, rng) == 0) {
          // Ignores its token entirely; only SIGKILL can reclaim the slot.
          std::this_thread::sleep_for(30s);
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  EXPECT_EQ(report.succeeded, 2u);
  EXPECT_GE(report.deadline_kills, 1u);
  EXPECT_EQ(*got.payloads[0], expected_payload(kMaster, 0, 1));
}

TEST(FleetTest, StoppedWorkerEscalatesThroughSuspectToDead) {
  constexpr std::uint64_t kMaster = 1010;
  SupervisorOptions options = fleet_options(kMaster, 2);
  options.max_attempts = 3;
  options.fleet.suspect_after = 150ms;
  options.fleet.dead_after = 400ms;
  options.fleet.max_worker_deaths_per_replica = 3;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  EventLog log;
  options.on_event = log.sink();
  Collector got(2);
  const SupervisorReport report = run_supervised_set(
      iota_ids(2),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 0 && attempt_of(kMaster, replica, rng) == 0) {
          // SIGSTOP freezes the whole process, heartbeat thread included:
          // the one failure only the liveness timers can see.
          std::raise(SIGSTOP);
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  EXPECT_EQ(report.succeeded, 2u);
  EXPECT_GE(report.worker_suspects, 1u);
  EXPECT_GE(report.worker_deaths, 1u);
  EXPECT_GE(log.count(SupervisionEvent::Kind::kWorkerSuspect), 1u);
  EXPECT_GE(log.count(SupervisionEvent::Kind::kWorkerDead), 1u);
  EXPECT_EQ(metrics.counter("fleet_worker_suspects").value(),
            report.worker_suspects);
  EXPECT_EQ(metrics.counter("fleet_worker_deaths").value(),
            report.worker_deaths);
  EXPECT_EQ(*got.payloads[0], expected_payload(kMaster, 0, 1));
}

TEST(FleetTest, OperatorCancelLeavesQueuedWorkUnfinished) {
  constexpr std::uint64_t kMaster = 1111;
  SupervisorOptions options = fleet_options(kMaster, 2);
  CancelToken cancel;
  options.cancel = &cancel;
  Collector got(8);
  const SupervisorReport report = run_supervised_set(
      iota_ids(8),
      [](std::size_t replica, Rng& rng,
         const CancelToken& token) -> std::optional<std::string> {
        // Slow enough that the cancel lands mid-campaign; drains politely.
        for (int i = 0; i < 250; ++i) {
          if (token.requested()) {
            return std::nullopt;
          }
          std::this_thread::sleep_for(2ms);
        }
        return rng_payload(replica, rng);
      },
      [&] {
        auto sink = got.sink();
        return [sink, &cancel](std::size_t replica, std::string&& payload) {
          sink(replica, std::move(payload));
          cancel.request(CancelReason::kUser);  // cancel after the first win
        };
      }(),
      options);

  EXPECT_TRUE(report.cancelled);
  EXPECT_GE(report.unfinished, 1u);
  EXPECT_EQ(report.succeeded + report.unfinished, 8u);
  EXPECT_TRUE(report.quarantined.empty());
}

TEST(FleetTest, OperatorCancelStillKillsAWorkerThatIgnoresItsToken) {
  constexpr std::uint64_t kMaster = 1212;
  SupervisorOptions options = fleet_options(kMaster, 1);
  options.deadline = 100ms;
  options.fleet.dead_after = 300ms;  // SIGKILL grace after the SIGUSR1
  CancelToken cancel;
  options.cancel = &cancel;
  // The first beat proves the worker is running its attempt; the cancel
  // lands then, well before the deadline.
  options.on_event = [&cancel](const SupervisionEvent& event) {
    if (event.kind == SupervisionEvent::Kind::kWorkerAlive) {
      cancel.request(CancelReason::kUser);
    }
  };
  Collector got(1);
  const auto start = std::chrono::steady_clock::now();
  const SupervisorReport report = run_supervised_set(
      iota_ids(1),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        // Ignores both the SIGTERM drain and the SIGUSR1 deadline.
        std::this_thread::sleep_for(30s);
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Deadline (100ms) + grace (300ms), not the task's 30s.
  EXPECT_LT(elapsed, 5s);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.succeeded, 0u);
  EXPECT_EQ(report.unfinished, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_FALSE(got.payloads[0].has_value());
}

// How long a child forked from this process takes to exit once told to, up
// to the parent's waitpid: the floor under any fleet shutdown.  It grows
// with the parent's footprint, to several ms in a long ASan test process.
double bare_exit_ms() {
  int quit[2] = {-1, -1};
  if (::pipe(quit) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(quit[0]);
    ::close(quit[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    char byte = 0;
    (void)!::read(quit[0], &byte, 1);
    ::_exit(0);
  }
  const auto start = std::chrono::steady_clock::now();
  (void)!::write(quit[1], "q", 1);
  ::waitpid(pid, nullptr, 0);
  const std::chrono::duration<double, std::milli> took =
      std::chrono::steady_clock::now() - start;
  ::close(quit[0]);
  ::close(quit[1]);
  return took.count();
}

// Shutdown waits on the worker's exit, not on a timer: a one-replica fleet
// returns about as soon after its only result as a bare child takes to
// exit, instead of sleeping out a 5ms poll interval after the quit frame.
// The fastest of ten runs is compared on each side: a loaded sanitizer run
// can delay any one run's wake-ups by milliseconds, a timer delays them all.
TEST(FleetTest, ShutdownWakesOnWorkerExitNotOnATimer) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kRuns = 10;
  std::vector<double> bare_ms;
  std::vector<double> tail_ms;
  for (std::size_t run = 0; run < kRuns; ++run) {
    bare_ms.push_back(bare_exit_ms());
    Clock::time_point succeeded;
    const SupervisorReport report = run_fleet_set(
        iota_ids(1),
        [](std::size_t, Rng&, const CancelToken&) {
          return std::optional<std::string>("");
        },
        [&](std::size_t, std::string&&) { succeeded = Clock::now(); },
        fleet_options(run + 1, 1));
    const std::chrono::duration<double, std::milli> tail =
        Clock::now() - succeeded;
    ASSERT_EQ(report.succeeded, 1u);
    tail_ms.push_back(tail.count());
  }
  EXPECT_LT(*std::min_element(tail_ms.begin(), tail_ms.end()) -
                *std::min_element(bare_ms.begin(), bare_ms.end()),
            3.0);
}

// A callback that throws ends the run, and the fleet goes with it: every
// worker is reaped before run_fleet_set rethrows.
TEST(FleetTest, ThrowingCallbackLeavesNoWorkerBehind) {
  SupervisorOptions options = fleet_options(5, 2);
  std::vector<pid_t> pids;
  options.on_event = [&pids](const SupervisionEvent& event) {
    if (event.kind == SupervisionEvent::Kind::kWorkerSpawn) {
      pids.push_back(static_cast<pid_t>(
          std::stol(event.detail.substr(event.detail.rfind(' ') + 1))));
    }
  };
  EXPECT_THROW(run_fleet_set(
                   iota_ids(4), healthy_task(),
                   [](std::size_t, std::string&&) {
                     throw std::runtime_error("journal died");
                   },
                   options),
               std::runtime_error);
  ASSERT_FALSE(pids.empty());
  for (const pid_t pid : pids) {
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1)
        << "worker " << pid << " is still a child of this process";
  }
}

// ---------------------------------------------------------------------------
// Campaign-level integration: the crash barrier and the quarantine journal.

class FleetCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("divlib_fleet_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CampaignOptions campaign(const std::string& sub, bool resume = false) const {
    CampaignOptions opts;
    opts.directory = (dir_ / sub).string();
    opts.resume = resume;
    opts.meta = "fleet-test 1\n";
    return opts;
  }

  fs::path dir_;
};

TEST_F(FleetCampaignTest, CrashedReplicaIsQuarantinedJournaledAndSkipped) {
  constexpr std::uint64_t kMaster = 2222;
  const std::size_t n = 6;
  // Replica 4 kills its worker on every attempt; everyone else is healthy.
  const SupervisedTask crashy = [](std::size_t replica, Rng& rng,
                                   const CancelToken&)
      -> std::optional<std::string> {
    if (replica == 4) {
      std::raise(SIGKILL);
    }
    return rng_payload(replica, rng);
  };

  SupervisorOptions process = fleet_options(kMaster, 2);
  process.max_attempts = 4;
  process.fleet.max_worker_deaths_per_replica = 2;
  process.min_success_fraction = 0.5;
  const SupervisedCampaignResult first =
      run_supervised_campaign(n, crashy, campaign("proc"), process);

  EXPECT_EQ(first.status, CampaignStatus::kDegraded);
  ASSERT_EQ(first.quarantined.size(), 1u);
  EXPECT_EQ(first.quarantined[0].replica, 4u);
  EXPECT_EQ(first.quarantined[0].failure, FailureClass::kDeterministic);
  EXPECT_EQ(first.ran, n - 1);

  // Thread-isolation reference: the same campaign, with the crash expressed
  // as the exception a thread pool can survive.  Healthy payloads must be
  // bit-identical across isolation modes.
  SupervisorOptions thread_mode;
  thread_mode.master_seed = kMaster;
  thread_mode.num_threads = 2;
  thread_mode.max_attempts = 4;
  thread_mode.min_success_fraction = 0.5;
  const SupervisedCampaignResult reference = run_supervised_campaign(
      n,
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 4) {
          throw std::logic_error("stand-in for the crash");
        }
        return rng_payload(replica, rng);
      },
      campaign("thread"), thread_mode);
  ASSERT_EQ(reference.quarantined.size(), 1u);
  for (std::size_t replica = 0; replica < n; ++replica) {
    EXPECT_EQ(first.payloads[replica], reference.payloads[replica])
        << "replica " << replica;
  }

  // The quarantine hit the journal: a resume (thread mode -- the journal is
  // isolation-agnostic) skips the poison replica instead of re-running it.
  const SupervisedCampaignResult resumed = run_supervised_campaign(
      n, healthy_task(), campaign("proc", /*resume=*/true), thread_mode);
  EXPECT_EQ(resumed.resumed, n - 1);
  EXPECT_EQ(resumed.ran, 0u);
  ASSERT_EQ(resumed.quarantined.size(), 1u);
  EXPECT_EQ(resumed.quarantined[0].replica, 4u);
  EXPECT_EQ(resumed.status, CampaignStatus::kDegraded);
}

TEST_F(FleetCampaignTest, PoisonSeedDodgeRestartsAfterQuarantinedAttempts) {
  constexpr std::uint64_t kMaster = 3333;
  const std::size_t n = 4;
  // Attempt 0 of replica 1 fails deterministically -- a poison seed.  The
  // task keyed on the attempt index (not a counter) so the poison is a
  // stable property of the seed, exactly what the dodge is for.
  const SupervisedTask poisoned = [](std::size_t replica, Rng& rng,
                                     const CancelToken&)
      -> std::optional<std::string> {
    if (replica == 1 && attempt_of(kMaster, replica, rng) == 0) {
      throw std::logic_error("poison seed");
    }
    return rng_payload(replica, rng);
  };

  SupervisorOptions supervision;
  supervision.master_seed = kMaster;
  supervision.num_threads = 2;
  supervision.min_success_fraction = 0.5;
  const SupervisedCampaignResult first =
      run_supervised_campaign(n, poisoned, campaign("dodge"), supervision);
  ASSERT_EQ(first.quarantined.size(), 1u);
  EXPECT_EQ(first.quarantined[0].replica, 1u);
  EXPECT_EQ(first.quarantined[0].attempts, 1u);
  EXPECT_EQ(first.status, CampaignStatus::kDegraded);

  // A plain resume must NOT re-run the quarantined replica...
  const SupervisedCampaignResult plain = run_supervised_campaign(
      n, poisoned, campaign("dodge", /*resume=*/true), supervision);
  EXPECT_EQ(plain.ran, 0u);
  ASSERT_EQ(plain.quarantined.size(), 1u);

  // ... but the dodge re-admits it starting at attempt 1 (past the poison),
  // so the retry runs a fresh stream and succeeds.
  CampaignOptions dodge = campaign("dodge", /*resume=*/true);
  dodge.retry_quarantined = true;
  const SupervisedCampaignResult retried =
      run_supervised_campaign(n, poisoned, dodge, supervision);
  EXPECT_EQ(retried.ran, 1u);
  EXPECT_TRUE(retried.quarantined.empty());
  EXPECT_EQ(retried.status, CampaignStatus::kComplete);
  ASSERT_TRUE(retried.payloads[1].has_value());
  EXPECT_EQ(*retried.payloads[1], expected_payload(kMaster, 1, 1));

  // And the dodge is durable: one more resume sees a complete campaign.
  const SupervisedCampaignResult final_check = run_supervised_campaign(
      n, healthy_task(), campaign("dodge", /*resume=*/true), supervision);
  EXPECT_TRUE(final_check.complete());
  EXPECT_TRUE(final_check.quarantined.empty());
  EXPECT_EQ(*final_check.payloads[1], expected_payload(kMaster, 1, 1));
}

TEST_F(FleetCampaignTest, ProcessModeDodgeRetriesPastACrashingSeed) {
  constexpr std::uint64_t kMaster = 4444;
  const std::size_t n = 4;
  // Attempt 0 of replica 2 CRASHES the worker (not an exception): under
  // max_worker_deaths_per_replica = 1 a single death quarantines, stamping
  // attempts = 1 into the journal.  The dodge must then restart at attempt 1
  // -- whose seed is healthy -- under process isolation end to end.
  const SupervisedTask crash_poison = [](std::size_t replica, Rng& rng,
                                         const CancelToken&)
      -> std::optional<std::string> {
    if (replica == 2 && attempt_of(kMaster, replica, rng) == 0) {
      std::raise(SIGKILL);
    }
    return rng_payload(replica, rng);
  };

  SupervisorOptions process = fleet_options(kMaster, 2);
  process.max_attempts = 1;
  process.fleet.max_worker_deaths_per_replica = 1;
  process.min_success_fraction = 0.5;
  const SupervisedCampaignResult first =
      run_supervised_campaign(n, crash_poison, campaign("pd"), process);
  ASSERT_EQ(first.quarantined.size(), 1u);
  EXPECT_EQ(first.quarantined[0].replica, 2u);
  EXPECT_EQ(first.quarantined[0].attempts, 1u);

  CampaignOptions dodge = campaign("pd", /*resume=*/true);
  dodge.retry_quarantined = true;
  const SupervisedCampaignResult retried =
      run_supervised_campaign(n, crash_poison, dodge, process);
  EXPECT_TRUE(retried.quarantined.empty());
  EXPECT_EQ(retried.status, CampaignStatus::kComplete);
  ASSERT_TRUE(retried.payloads[2].has_value());
  EXPECT_EQ(*retried.payloads[2], expected_payload(kMaster, 2, 1));
}

}  // namespace
}  // namespace divlib
