#include "engine/supervisor.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <ios>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "engine/adaptive/calibration.hpp"
#include "engine/campaign.hpp"
#include "engine/montecarlo.hpp"
#include "io/failpoint.hpp"
#include "io/journal.hpp"
#include "obs/metrics.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// Payload depends on the attempt's RNG stream, so any seeding mistake in the
// supervisor (wrong attempt index, speculative twin on a different stream)
// shows up as a payload mismatch, not just a count mismatch.
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

// Collects payloads keyed by replica id; safe because on_success runs
// once per replica and each call writes only its own slot.
struct Collector {
  std::vector<std::optional<std::string>> payloads;
  explicit Collector(std::size_t n) : payloads(n) {}
  std::function<void(std::size_t, std::string&&)> sink() {
    return [this](std::size_t replica, std::string&& payload) {
      payloads[replica] = std::move(payload);
    };
  }
};

TEST(SupervisorTest, HealthyBatchMatchesIsolatedDriver) {
  const std::size_t n = 32;
  const MonteCarloOptions mc{.master_seed = 1234, .num_threads = 4};
  std::vector<std::optional<std::string>> expected(n);
  run_replica_set_isolated_erased(
      iota_ids(n),
      [&](std::size_t replica, Rng& rng) {
        expected[replica] = rng_payload(replica, rng);
      },
      mc);

  SupervisorOptions options;
  options.master_seed = 1234;
  options.num_threads = 4;
  Collector got(n);
  const SupervisorReport report =
      run_supervised_set(iota_ids(n), healthy_task(), got.sink(), options);
  EXPECT_EQ(report.replicas, n);
  EXPECT_EQ(report.succeeded, n);
  EXPECT_EQ(report.unfinished, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.retries, 0u);
  EXPECT_FALSE(report.cancelled);
  EXPECT_DOUBLE_EQ(report.success_fraction(), 1.0);
  for (std::size_t replica = 0; replica < n; ++replica) {
    ASSERT_TRUE(got.payloads[replica].has_value()) << "replica " << replica;
    EXPECT_EQ(*got.payloads[replica], *expected[replica])
        << "replica " << replica;
  }
}

TEST(SupervisorTest, EmptyBatchIsNoop) {
  Collector got(0);
  const SupervisorReport report =
      run_supervised_set({}, healthy_task(), got.sink(), {});
  EXPECT_EQ(report.replicas, 0u);
  EXPECT_DOUBLE_EQ(report.success_fraction(), 1.0);
}

TEST(SupervisorTest, ClassifyFailureTaxonomy) {
  EXPECT_EQ(classify_failure(std::bad_alloc{}), FailureClass::kResource);
  EXPECT_EQ(classify_failure(std::system_error(
                std::make_error_code(std::errc::io_error))),
            FailureClass::kResource);
  EXPECT_EQ(classify_failure(std::ios_base::failure("disk")),
            FailureClass::kResource);
  EXPECT_EQ(classify_failure(std::logic_error("bug")),
            FailureClass::kDeterministic);
  EXPECT_EQ(classify_failure(std::out_of_range("index")),
            FailureClass::kDeterministic);
  EXPECT_EQ(classify_failure(std::runtime_error("weather")),
            FailureClass::kTransient);
  EXPECT_EQ(classify_failure(std::exception{}), FailureClass::kTransient);
}

TEST(SupervisorTest, FailureClassNamesRoundTrip) {
  for (const FailureClass failure :
       {FailureClass::kTransient, FailureClass::kResource,
        FailureClass::kDeterministic}) {
    EXPECT_EQ(parse_failure_class(to_string(failure)), failure);
  }
  EXPECT_THROW(parse_failure_class("flaky"), std::invalid_argument);
}

TEST(SupervisorTest, TransientFailureRetriesOnFreshSeedStream) {
  constexpr std::uint64_t kMaster = 77;
  std::atomic<unsigned> executions{0};
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 2;
  options.max_attempts = 3;
  options.backoff_base = 1ms;  // keep the test fast
  std::vector<SupervisionEvent> events;
  options.on_event = [&](const SupervisionEvent& event) {
    events.push_back(event);
  };
  Collector got(4);
  const SupervisorReport report = run_supervised_set(
      iota_ids(4),
      [&](std::size_t replica, Rng& rng,
          const CancelToken&) -> std::optional<std::string> {
        if (replica == 2 && executions.fetch_add(1) == 0) {
          throw std::runtime_error("cosmic ray");
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 4u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_GE(report.backoff_wait_ms, 0.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SupervisionEvent::Kind::kRetry);
  EXPECT_EQ(events[0].replica, 2u);
  EXPECT_EQ(events[0].attempt, 1u);
  EXPECT_EQ(events[0].failure, FailureClass::kTransient);
  EXPECT_EQ(events[0].detail, "cosmic ray");
  // The surviving payload must come from the attempt-1 stream.
  Rng expected(Rng::retry_seed(kMaster, 2, 1));
  ASSERT_TRUE(got.payloads[2].has_value());
  EXPECT_EQ(*got.payloads[2], "r2:" + std::to_string(expected.next()));
}

TEST(SupervisorTest, DeterministicFailureFailsFastWithoutRetries) {
  SupervisorOptions options;
  options.num_threads = 2;
  options.max_attempts = 5;  // budget exists but must not be spent
  std::vector<SupervisionEvent> events;
  options.on_event = [&](const SupervisionEvent& event) {
    events.push_back(event);
  };
  Collector got(4);
  const SupervisorReport report = run_supervised_set(
      iota_ids(4),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 1) {
          throw std::logic_error("assertion failed");
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 3u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.fail_fasts, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].replica, 1u);
  EXPECT_EQ(report.quarantined[0].attempts, 1u);  // consumed, not budget
  EXPECT_EQ(report.quarantined[0].failure, FailureClass::kDeterministic);
  EXPECT_EQ(report.quarantined[0].message, "assertion failed");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, SupervisionEvent::Kind::kFailFast);
  EXPECT_EQ(events[1].kind, SupervisionEvent::Kind::kQuarantine);
  EXPECT_EQ(events[1].attempt, 1u);
}

TEST(SupervisorTest, ExhaustedBudgetQuarantinesWithConsumedAttempts) {
  SupervisorOptions options;
  options.num_threads = 2;
  options.max_attempts = 3;
  options.backoff_base = 0ms;
  MetricsRegistry registry;
  options.metrics = &registry;
  Collector got(3);
  const SupervisorReport report = run_supervised_set(
      iota_ids(3),
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 0) {
          throw std::runtime_error("always raining");
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 2u);
  EXPECT_EQ(report.retries, 2u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].replica, 0u);
  EXPECT_EQ(report.quarantined[0].attempts, 3u);
  EXPECT_EQ(report.quarantined[0].failure, FailureClass::kTransient);
  EXPECT_EQ(registry.counter("supervisor_retries").value(), 2u);
  EXPECT_EQ(registry.counter("supervisor_quarantines").value(), 1u);
}

TEST(SupervisorTest, CustomClassifierOverridesTaxonomy) {
  SupervisorOptions options;
  options.num_threads = 1;
  options.max_attempts = 4;
  options.classify = [](const std::exception&) {
    return FailureClass::kDeterministic;  // everything fails fast
  };
  Collector got(1);
  const SupervisorReport report = run_supervised_set(
      iota_ids(1),
      [](std::size_t, Rng&,
         const CancelToken&) -> std::optional<std::string> {
        throw std::runtime_error("would normally retry");
      },
      got.sink(), options);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.fail_fasts, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].attempts, 1u);
}

TEST(SupervisorTest, DeadlineKillsHangingAttemptThenRetries) {
  // Replica 1's FIRST execution hangs until its lease token fires; the
  // supervisor must kill it at the deadline, classify the kill as transient,
  // and retry on the attempt-1 stream, which succeeds instantly.
  constexpr std::uint64_t kMaster = 55;
  std::atomic<unsigned> hangs{0};
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 2;
  options.max_attempts = 2;
  options.deadline = 50ms;
  options.backoff_base = 1ms;
  std::vector<SupervisionEvent::Kind> kinds;
  options.on_event = [&](const SupervisionEvent& event) {
    kinds.push_back(event.kind);
  };
  Collector got(3);
  const SupervisorReport report = run_supervised_set(
      iota_ids(3),
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        if (replica == 1 && hangs.fetch_add(1) == 0) {
          while (!cancel.requested()) {
            std::this_thread::sleep_for(1ms);
          }
          EXPECT_EQ(cancel.reason(), CancelReason::kDeadline);
          return std::nullopt;  // drained, engine-style
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 3u);
  EXPECT_EQ(report.deadline_kills, 1u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], SupervisionEvent::Kind::kDeadlineKill);
  EXPECT_EQ(kinds[1], SupervisionEvent::Kind::kRetry);
  Rng expected(Rng::retry_seed(kMaster, 1, 1));
  ASSERT_TRUE(got.payloads[1].has_value());
  EXPECT_EQ(*got.payloads[1], "r1:" + std::to_string(expected.next()));
}

TEST(SupervisorTest, PerpetuallyHangingReplicaIsQuarantined) {
  SupervisorOptions options;
  options.num_threads = 2;
  options.max_attempts = 2;
  options.deadline = 30ms;
  options.backoff_base = 1ms;
  Collector got(2);
  const SupervisorReport report = run_supervised_set(
      iota_ids(2),
      [](std::size_t replica, Rng& rng,
         const CancelToken& cancel) -> std::optional<std::string> {
        if (replica == 0) {
          while (!cancel.requested()) {
            std::this_thread::sleep_for(1ms);
          }
          return std::nullopt;
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 1u);
  EXPECT_EQ(report.deadline_kills, 2u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].replica, 0u);
  EXPECT_EQ(report.quarantined[0].attempts, 2u);
}

TEST(SupervisorTest, BackoffDelayIsDeterministicJitteredAndCapped) {
  SupervisorOptions options;
  options.master_seed = 99;
  options.backoff_base = 100ms;
  options.backoff_cap = 1000ms;
  EXPECT_EQ(backoff_delay(options, 4, 0).count(), 0);
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    const auto delay = backoff_delay(options, 4, attempt);
    EXPECT_EQ(delay, backoff_delay(options, 4, attempt)) << attempt;
    const double nominal = 100.0 * static_cast<double>(1u << (attempt - 1));
    const double lo = std::min(0.5 * nominal, 1000.0);
    EXPECT_GE(static_cast<double>(delay.count()), lo - 1.0) << attempt;
    EXPECT_LE(delay.count(), 1000) << attempt;
  }
  // Different replicas jitter differently (decorrelated thundering herd).
  bool any_differ = false;
  for (std::size_t replica = 0; replica < 8 && !any_differ; ++replica) {
    any_differ = backoff_delay(options, replica, 1) !=
                 backoff_delay(options, replica + 8, 1);
  }
  EXPECT_TRUE(any_differ);
  options.backoff_base = 0ms;
  EXPECT_EQ(backoff_delay(options, 4, 3).count(), 0);
}

TEST(SupervisorTest, StragglerSpeculationFirstFinisherWins) {
  // Replica 5's FIRST execution crawls (sleeps until superseded or 5s); the
  // other replicas establish a fast median, so the monitor launches a twin
  // on the same (replica, attempt) seed and the twin's payload wins.  The
  // crawling instance exits early once its token fires kSuperseded.
  constexpr std::uint64_t kMaster = 31;
  std::atomic<unsigned> slow_execs{0};
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 4;
  options.straggler_factor = 3.0;
  options.straggler_warmup = 3;
  Collector got(8);
  const SupervisorReport report = run_supervised_set(
      iota_ids(8),
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        auto payload = rng_payload(replica, rng);
        if (replica == 5 && slow_execs.fetch_add(1) == 0) {
          for (int i = 0; i < 5000 && !cancel.requested(); ++i) {
            std::this_thread::sleep_for(1ms);
          }
          if (cancel.requested()) {
            EXPECT_EQ(cancel.reason(), CancelReason::kSuperseded);
            return std::nullopt;
          }
        }
        return payload;
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 8u);
  EXPECT_GE(report.speculative_launches, 1u);
  EXPECT_GE(report.speculative_wins, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.retries, 0u);  // speculation is not a retry
  // Same attempt-0 stream regardless of which instance won.
  Rng expected(Rng::retry_seed(kMaster, 5, 0));
  ASSERT_TRUE(got.payloads[5].has_value());
  EXPECT_EQ(*got.payloads[5], "r5:" + std::to_string(expected.next()));
}

TEST(SupervisorTest, PresetCancelRunsNothing) {
  CancelToken token;
  token.request();
  SupervisorOptions options;
  options.cancel = &token;
  std::atomic<int> calls{0};
  Collector got(6);
  const SupervisorReport report = run_supervised_set(
      iota_ids(6),
      [&](std::size_t, Rng&, const CancelToken&) -> std::optional<std::string> {
        ++calls;
        return "x";
      },
      got.sink(), options);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.unfinished, 6u);
  EXPECT_EQ(report.succeeded, 0u);
}

TEST(SupervisorTest, MidBatchCancelDrainsAndMarksRemainingUnfinished) {
  CancelToken token;
  SupervisorOptions options;
  options.num_threads = 2;
  options.cancel = &token;
  Collector got(16);
  const SupervisorReport report = run_supervised_set(
      iota_ids(16),
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        if (replica == 1) {
          token.request();  // operator hits Ctrl-C while work is in flight
        }
        if (replica >= 2) {
          // Later claims (if any slip through before the monitor reacts)
          // drain cooperatively like an engine would.
          for (int i = 0; i < 1000 && !cancel.requested(); ++i) {
            std::this_thread::sleep_for(1ms);
          }
          if (cancel.requested()) {
            return std::nullopt;
          }
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.succeeded + report.unfinished, 16u);
  EXPECT_GE(report.unfinished, 1u);
  EXPECT_TRUE(report.quarantined.empty());
}

// The operator token is checked before every claim, not only by the 5ms
// monitor.  A worker retakes the mutex straight after a trivial attempt, so
// with the monitor alone the one worker below kept claiming after the first
// replica fired the token: at least 2 of the 64 ran in every round, and
// sometimes all 64.  Now exactly one runs and the rest end unfinished.
TEST(SupervisorTest, CancelStopsTheNextClaimWithoutWaitingForTheMonitor) {
  for (int round = 0; round < 20; ++round) {
    CancelToken token;
    SupervisorOptions options;
    options.num_threads = 1;
    options.cancel = &token;
    std::atomic<int> ran{0};
    Collector got(64);
    const SupervisorReport report = run_supervised_set(
        iota_ids(64),
        [&](std::size_t replica, Rng& rng,
            const CancelToken&) -> std::optional<std::string> {
          if (ran.fetch_add(1) == 0) {
            token.request();
          }
          return rng_payload(replica, rng);
        },
        got.sink(), options);
    EXPECT_EQ(ran.load(), 1) << "round " << round;
    EXPECT_TRUE(report.cancelled);
    EXPECT_EQ(report.succeeded, 1u) << "round " << round;
    EXPECT_EQ(report.unfinished, 63u) << "round " << round;
  }
}

// on_success runs after the worker drops the executor's lock, so two
// workers' calls overlap: each waits (bounded) for the other to enter.
// Under the lock the first call would wait out its timeout alone.
TEST(SupervisorTest, OnSuccessRunsOutsideTheExecutorLock) {
  SupervisorOptions options;
  options.num_threads = 2;
  std::atomic<int> entered{0};
  std::atomic<int> met{0};
  Collector got(2);
  const SupervisorReport report = run_supervised_set(
      iota_ids(2), healthy_task(),
      [&](std::size_t replica, std::string&& payload) {
        entered.fetch_add(1);
        const auto give_up = std::chrono::steady_clock::now() + 2s;
        while (entered.load() < 2 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(1ms);
        }
        if (entered.load() == 2) {
          met.fetch_add(1);
        }
        got.payloads[replica] = std::move(payload);
      },
      options);
  EXPECT_EQ(report.succeeded, 2u);
  EXPECT_EQ(met.load(), 2) << "the two on_success calls never overlapped";
  EXPECT_TRUE(got.payloads[0].has_value());
  EXPECT_TRUE(got.payloads[1].has_value());
}

// A callback that throws (a journal that died mid-run, say) ends the run
// with that error instead of escaping a worker thread: no new attempt
// starts, the pool joins, and run_supervised_set rethrows it.
TEST(SupervisorTest, CallbackThrowEndsTheRunWithThatError) {
  constexpr std::size_t kReplicas = 64;
  const auto run = [&](const SupervisorOptions& options,
                       const std::function<void(std::size_t, std::string&&)>&
                           on_success,
                       const std::function<bool(std::size_t)>& fails)
      -> std::pair<std::string, int> {
    std::atomic<int> ran{0};
    try {
      run_supervised_set(
          iota_ids(kReplicas),
          [&](std::size_t replica, Rng& rng,
              const CancelToken&) -> std::optional<std::string> {
            ran.fetch_add(1);
            std::this_thread::sleep_for(1ms);
            if (fails(replica)) {
              throw std::runtime_error("transient");
            }
            return rng_payload(replica, rng);
          },
          on_success, options);
    } catch (const std::runtime_error& error) {
      return {error.what(), ran.load()};
    }
    return {"no error", ran.load()};
  };

  SupervisorOptions options;
  options.num_threads = 4;
  options.max_attempts = 2;
  options.backoff_base = 0ms;
  const auto [success_error, success_ran] = run(
      options,
      [](std::size_t replica, std::string&&) {
        if (replica == 3) {
          throw std::runtime_error("journal is gone");
        }
      },
      [](std::size_t) { return false; });
  EXPECT_EQ(success_error, "journal is gone");
  EXPECT_LT(success_ran, static_cast<int>(kReplicas));

  options.on_event = [](const SupervisionEvent& event) {
    if (event.kind == SupervisionEvent::Kind::kRetry) {
      throw std::runtime_error("event sink is gone");
    }
  };
  const auto [event_error, event_ran] =
      run(options, [](std::size_t, std::string&&) {},
          [](std::size_t replica) { return replica == 2; });
  EXPECT_EQ(event_error, "event sink is gone");
  EXPECT_LT(event_ran, static_cast<int>(kReplicas));
}

TEST(SupervisorTest, EventJsonCarriesAllFields) {
  SupervisionEvent event;
  event.kind = SupervisionEvent::Kind::kRetry;
  event.replica = 17;
  event.attempt = 2;
  event.failure = FailureClass::kResource;
  event.backoff_ms = 150.5;
  event.detail = "bad \"alloc\"";
  const std::string json = event.to_json();
  EXPECT_NE(json.find("\"kind\":\"retry\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"replica\":17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"attempt\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failure\":\"resource\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"backoff_ms\":"), std::string::npos) << json;
  EXPECT_NE(json.find("bad \\\"alloc\\\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Supervised campaigns: quarantine journaling, resume, quorum grading.

class SupervisedCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("divlib_supervised_campaign_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CampaignOptions options(bool resume = false) const {
    CampaignOptions opts;
    opts.directory = dir_.string();
    opts.resume = resume;
    opts.meta = "supervised-campaign 1\nk=3 seed=42\n";
    return opts;
  }

  fs::path dir_;
};

TEST(SupervisedCampaignRecord, QuarantineCodecRoundTrips) {
  const QuarantineRecord record{.replica = 12,
                               .attempts = 3,
                               .failure = FailureClass::kResource,
                               .message = "std::bad_alloc at step 7"};
  const std::string encoded = encode_quarantine_record(record);
  EXPECT_TRUE(is_quarantine_record(encoded));
  EXPECT_FALSE(is_quarantine_record("12 some payload"));
  const QuarantineRecord decoded = decode_quarantine_record(encoded);
  EXPECT_EQ(decoded.replica, 12u);
  EXPECT_EQ(decoded.attempts, 3u);
  EXPECT_EQ(decoded.failure, FailureClass::kResource);
  EXPECT_EQ(decoded.message, "std::bad_alloc at step 7");
  // Empty message round-trips too.
  const QuarantineRecord bare =
      decode_quarantine_record(encode_quarantine_record(
          {.replica = 0, .attempts = 1, .failure = FailureClass::kTransient}));
  EXPECT_EQ(bare.message, "");
}

TEST(SupervisedCampaignRecord, MalformedQuarantineRecordsThrow) {
  EXPECT_THROW(decode_quarantine_record("12 payload"), std::invalid_argument);
  EXPECT_THROW(decode_quarantine_record("quarantine "), std::invalid_argument);
  EXPECT_THROW(decode_quarantine_record("quarantine x transient 1"),
               std::invalid_argument);
  EXPECT_THROW(decode_quarantine_record("quarantine 3 flaky 1"),
               std::invalid_argument);
  // Pre-supervision readers fail loudly on the non-numeric prefix.
  EXPECT_THROW(decode_campaign_record("quarantine 3 transient 1 boom"),
               std::invalid_argument);
}

TEST_F(SupervisedCampaignTest, KillDrill) {
  // The acceptance drill: one replica hangs forever, one throws
  // deterministically.  The campaign must complete kDegraded with exactly
  // those ids quarantined, every other replica bit-identical to an
  // UNSUPERVISED campaign with the same master seed, and a resume must skip
  // the quarantined ids without re-executing anything.
  constexpr std::size_t kReplicas = 8;
  constexpr std::uint64_t kMaster = 42;
  const SupervisedTask drill_task =
      [](std::size_t replica, Rng& rng,
         const CancelToken& cancel) -> std::optional<std::string> {
    if (replica == 3) {
      while (!cancel.requested()) {
        std::this_thread::sleep_for(1ms);
      }
      return std::nullopt;  // hanging replica: only a deadline stops it
    }
    if (replica == 5) {
      throw std::logic_error("replica 5 divides by zero");
    }
    return rng_payload(replica, rng);
  };
  SupervisorOptions supervision;
  supervision.master_seed = kMaster;
  supervision.num_threads = 2;
  supervision.max_attempts = 2;
  supervision.deadline = 40ms;
  supervision.backoff_base = 1ms;
  supervision.min_success_fraction = 0.7;  // 6/8 = 0.75 meets the quorum

  const SupervisedCampaignResult outcome =
      run_supervised_campaign(kReplicas, drill_task, options(), supervision);
  EXPECT_EQ(outcome.status, CampaignStatus::kDegraded);
  EXPECT_EQ(outcome.ran, 6u);
  EXPECT_EQ(outcome.resumed, 0u);
  ASSERT_EQ(outcome.quarantined.size(), 2u);
  EXPECT_EQ(outcome.quarantined[0].replica, 3u);
  EXPECT_EQ(outcome.quarantined[0].failure, FailureClass::kTransient);
  EXPECT_EQ(outcome.quarantined[0].attempts, 2u);
  EXPECT_EQ(outcome.quarantined[1].replica, 5u);
  EXPECT_EQ(outcome.quarantined[1].failure, FailureClass::kDeterministic);
  EXPECT_EQ(outcome.quarantined[1].attempts, 1u);
  EXPECT_FALSE(outcome.payloads[3].has_value());
  EXPECT_FALSE(outcome.payloads[5].has_value());

  // Healthy replicas match an unsupervised sibling campaign bit for bit.
  const fs::path sibling = dir_.string() + ".unsupervised";
  fs::remove_all(sibling);
  CampaignOptions plain_options = options();
  plain_options.directory = sibling.string();
  plain_options.mc.master_seed = kMaster;
  plain_options.mc.num_threads = 2;
  const CampaignResult plain = run_campaign(
      kReplicas,
      [](std::size_t replica, Rng& rng) { return rng_payload(replica, rng); },
      plain_options);
  fs::remove_all(sibling);
  for (const std::size_t replica : {0u, 1u, 2u, 4u, 6u, 7u}) {
    ASSERT_TRUE(outcome.payloads[replica].has_value()) << replica;
    EXPECT_EQ(*outcome.payloads[replica], *plain.payloads[replica])
        << "replica " << replica;
  }

  // Resume: nothing left to run, quarantined ids are skipped, the task must
  // never be invoked.
  const SupervisedCampaignResult resumed = run_supervised_campaign(
      kReplicas,
      [](std::size_t replica, Rng&,
         const CancelToken&) -> std::optional<std::string> {
        ADD_FAILURE() << "resume re-executed replica " << replica;
        return std::nullopt;
      },
      options(/*resume=*/true), supervision);
  EXPECT_EQ(resumed.status, CampaignStatus::kDegraded);
  EXPECT_EQ(resumed.resumed, 6u);
  EXPECT_EQ(resumed.ran, 0u);
  ASSERT_EQ(resumed.quarantined.size(), 2u);
  EXPECT_EQ(resumed.quarantined[0].replica, 3u);
  EXPECT_EQ(resumed.quarantined[1].replica, 5u);

  // An unsupervised resume of the same directory refuses the quarantines.
  try {
    run_campaign(
        kReplicas,
        [](std::size_t replica, Rng& rng) { return rng_payload(replica, rng); },
        options(/*resume=*/true));
    FAIL() << "expected run_campaign to refuse quarantine records";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("quarantine"), std::string::npos)
        << error.what();
  }
}

TEST_F(SupervisedCampaignTest, QuorumMissGradesFailed) {
  SupervisorOptions supervision;
  supervision.num_threads = 2;
  supervision.min_success_fraction = 0.9;  // 3/4 = 0.75 misses it
  const SupervisedCampaignResult outcome = run_supervised_campaign(
      4,
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 2) {
          throw std::logic_error("poison");
        }
        return rng_payload(replica, rng);
      },
      options(), supervision);
  EXPECT_EQ(outcome.status, CampaignStatus::kFailed);
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined[0].replica, 2u);
}

TEST_F(SupervisedCampaignTest, QuarantineIsJournaledImmediately) {
  // Flush cadence is deliberately huge: payloads may ride the cadence, but
  // quarantines must be durable the moment they are decided.
  CampaignOptions opts = options();
  opts.flush_every = 1000;
  SupervisorOptions supervision;
  supervision.num_threads = 1;
  supervision.min_success_fraction = 0.0;
  const SupervisedCampaignResult outcome = run_supervised_campaign(
      3,
      [](std::size_t replica, Rng& rng,
         const CancelToken&) -> std::optional<std::string> {
        if (replica == 1) {
          throw std::logic_error("poison");
        }
        return rng_payload(replica, rng);
      },
      opts, supervision);
  EXPECT_EQ(outcome.status, CampaignStatus::kDegraded);
  const JournalRecovery recovery =
      read_journal((dir_ / "results.journal").string());
  bool found = false;
  for (const std::string& record : recovery.records) {
    found = found || is_quarantine_record(record);
  }
  EXPECT_TRUE(found) << "quarantine record missing from the journal";
}

TEST_F(SupervisedCampaignTest, CancelLeavesResumableWorkAndStatusCancelled) {
  CancelToken token;
  token.request();
  SupervisorOptions supervision;
  supervision.cancel = &token;
  const SupervisedCampaignResult outcome =
      run_supervised_campaign(4, healthy_task(), options(), supervision);
  EXPECT_EQ(outcome.status, CampaignStatus::kCancelled);
  EXPECT_EQ(outcome.ran, 0u);
  EXPECT_TRUE(outcome.report.cancelled);
}

TEST_F(SupervisedCampaignTest, CompleteCampaignGradesComplete) {
  SupervisorOptions supervision;
  supervision.num_threads = 2;
  const SupervisedCampaignResult outcome =
      run_supervised_campaign(6, healthy_task(), options(), supervision);
  EXPECT_EQ(outcome.status, CampaignStatus::kComplete);
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.ran, 6u);
  EXPECT_TRUE(outcome.quarantined.empty());
}

// The --checkpoint-every 1 contract under group commit: a worker's record
// is in the journal before that worker starts its next attempt.
TEST_F(SupervisedCampaignTest, EachRecordIsOnDiskBeforeItsWorkerClaimsAgain) {
  constexpr std::size_t kReplicas = 96;
  CampaignOptions opts = options();
  opts.flush_every = 1;
  SupervisorOptions supervision;
  supervision.num_threads = 4;
  const std::string journal = (dir_ / "results.journal").string();
  std::atomic<int> checked{0};
  std::atomic<int> missing{0};
  const SupervisedCampaignResult outcome = run_supervised_campaign(
      kReplicas,
      [&](std::size_t replica, Rng& rng,
          const CancelToken&) -> std::optional<std::string> {
        // Worker threads are fresh for every run, so this starts empty.
        thread_local std::optional<std::size_t> last_finished;
        if (last_finished.has_value()) {
          bool found = false;
          for (const std::string& record : read_journal(journal).records) {
            found = found ||
                    decode_campaign_record(record).first == *last_finished;
          }
          checked.fetch_add(1);
          missing.fetch_add(found ? 0 : 1);
        }
        std::optional<std::string> payload = rng_payload(replica, rng);
        last_finished = replica;
        return payload;
      },
      opts, supervision);
  EXPECT_EQ(outcome.status, CampaignStatus::kComplete);
  EXPECT_GT(checked.load(), 0);
  EXPECT_EQ(missing.load(), 0)
      << "a worker claimed again before its last record was journaled";
}

// A journal that dies mid-run (the "journal" failpoint tears an append)
// ends the campaign with that error; a resume then completes it exactly as
// an uninterrupted run would have.
TEST_F(SupervisedCampaignTest, JournalFailureThrowsAndTheResumeMatches) {
  constexpr std::size_t kReplicas = 64;
  SupervisorOptions supervision;
  supervision.master_seed = 42;
  supervision.num_threads = 4;
  const fs::path reference_dir = dir_.string() + ".reference";
  fs::remove_all(reference_dir);
  CampaignOptions reference_options = options();
  reference_options.directory = reference_dir.string();
  const SupervisedCampaignResult reference = run_supervised_campaign(
      kReplicas, healthy_task(), reference_options, supervision);
  fs::remove_all(reference_dir);
  ASSERT_EQ(reference.status, CampaignStatus::kComplete);

  const struct Disarm {
    ~Disarm() { disarm_io_failpoint(); }
  } disarm;
  // The magic plus about eight records, then a torn frame.
  arm_io_failpoint("journal", 300);
  EXPECT_THROW(
      run_supervised_campaign(kReplicas, healthy_task(), options(),
                              supervision),
      std::runtime_error);
  disarm_io_failpoint();

  const SupervisedCampaignResult resumed = run_supervised_campaign(
      kReplicas, healthy_task(), options(/*resume=*/true), supervision);
  EXPECT_EQ(resumed.status, CampaignStatus::kComplete);
  EXPECT_GT(resumed.resumed, 0u);
  EXPECT_LT(resumed.resumed, kReplicas);
  EXPECT_EQ(resumed.resumed + resumed.ran, kReplicas);
  EXPECT_EQ(resumed.payloads, reference.payloads);
}

// With an estimator armed the campaign owns calibration.journal: keyed by
// the meta, written for this call only, and replayed into a resume.
TEST_F(SupervisedCampaignTest, CalibrationIsKeyedToTheMetaAndWarmsAResume) {
  constexpr std::size_t kReplicas = 8;
  const std::string log = (dir_ / CalibrationLog::file_name()).string();
  const auto slow_task = [](std::size_t replica, Rng& rng,
                            const CancelToken&) -> std::optional<std::string> {
    std::this_thread::sleep_for(1ms);  // a positive, recordable wall time
    return rng_payload(replica, rng);
  };
  CompletionEstimator estimator;
  SupervisorOptions supervision;
  supervision.num_threads = 2;
  supervision.estimator = &estimator;
  const SupervisedCampaignResult first =
      run_supervised_campaign(kReplicas, slow_task, options(), supervision);
  EXPECT_EQ(first.status, CampaignStatus::kComplete);
  EXPECT_EQ(first.warmed, 0u);
  // A header plus one sample per success; the observer is gone afterwards.
  EXPECT_EQ(read_journal(log).records.size(), kReplicas + 1);
  estimator.observe(1.0);
  EXPECT_EQ(read_journal(log).records.size(), kReplicas + 1);

  // A resume under another configuration is refused before the log is
  // touched, so the real campaign keeps its samples.
  CampaignOptions other = options(/*resume=*/true);
  other.meta = "supervised-campaign 1\nk=4 seed=42\n";
  CompletionEstimator other_estimator;
  supervision.estimator = &other_estimator;
  EXPECT_THROW(
      run_supervised_campaign(kReplicas, slow_task, other, supervision),
      std::runtime_error);
  EXPECT_EQ(read_journal(log).records.size(), kReplicas + 1);

  CompletionEstimator warm_estimator;
  supervision.estimator = &warm_estimator;
  const SupervisedCampaignResult resumed = run_supervised_campaign(
      kReplicas, slow_task, options(/*resume=*/true), supervision);
  EXPECT_EQ(resumed.warmed, kReplicas);
  EXPECT_EQ(warm_estimator.samples(), kReplicas);
}

TEST(SupervisedCampaignRecord, CampaignStatusNames) {
  EXPECT_STREQ(to_string(CampaignStatus::kComplete), "complete");
  EXPECT_STREQ(to_string(CampaignStatus::kDegraded), "degraded");
  EXPECT_STREQ(to_string(CampaignStatus::kFailed), "failed");
  EXPECT_STREQ(to_string(CampaignStatus::kCancelled), "cancelled");
}

}  // namespace
}  // namespace divlib
