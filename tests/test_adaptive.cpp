// The adaptive supervision control plane: completion-time estimator
// (exact nearest-rank quantiles, confidence gate, adaptive deadline),
// persistent calibration, the backpressure circuit breaker, supervision
// journal records, and the thread-mode supervisor integration of all three.
#include "engine/adaptive/breaker.hpp"
#include "engine/adaptive/calibration.hpp"
#include "engine/adaptive/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "engine/campaign.hpp"
#include "engine/supervisor.hpp"
#include "io/journal.hpp"
#include "rng/rng.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Clock = CircuitBreaker::Clock;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// CompletionEstimator

TEST(EstimatorTest, ColdEstimatorKeepsFallbackDeadline) {
  CompletionEstimator estimator;
  EXPECT_EQ(estimator.samples(), 0u);
  EXPECT_FALSE(estimator.confident());
  EXPECT_EQ(estimator.quantile_seconds(), 0.0);
  EXPECT_EQ(estimator.deadline(0ms), 0ms);
  EXPECT_EQ(estimator.deadline(1234ms), 1234ms);
}

TEST(EstimatorTest, ConfidenceGateOpensAtMinSamples) {
  EstimatorOptions options;
  options.min_samples = 4;
  CompletionEstimator estimator(options);
  for (int i = 0; i < 3; ++i) {
    estimator.observe(1.0);
    EXPECT_FALSE(estimator.confident()) << i;
  }
  estimator.observe(1.0);
  EXPECT_TRUE(estimator.confident());
}

TEST(EstimatorTest, DeadlineIsQuantileTimesSafety) {
  EstimatorOptions options;
  options.quantile = 0.5;
  options.safety_factor = 3.0;
  options.min_samples = 4;
  CompletionEstimator estimator(options);
  for (const double s : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    estimator.observe(s);
  }
  // Nearest-rank median of {1..5} is 3.0; deadline = 3.0 * 3 = 9000ms.
  EXPECT_DOUBLE_EQ(estimator.quantile_seconds(), 3.0);
  EXPECT_EQ(estimator.deadline(50ms), 9000ms);
}

TEST(EstimatorTest, AdaptedDeadlineNeverReadsAsDisabled) {
  // A sub-millisecond learned quantile must floor at 1ms: a 0ms deadline
  // means "no deadline" to the supervisor.
  EstimatorOptions options;
  options.min_samples = 1;
  CompletionEstimator estimator(options);
  estimator.observe(1e-7);
  EXPECT_EQ(estimator.deadline(0ms), 1ms);
}

TEST(EstimatorTest, RejectsNonPositiveAndNonFiniteSamples) {
  EstimatorOptions options;
  options.min_samples = 1;
  CompletionEstimator estimator(options);
  estimator.observe(0.0);
  estimator.observe(-1.0);
  estimator.observe(std::numeric_limits<double>::quiet_NaN());
  estimator.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(estimator.samples(), 0u);
  EXPECT_FALSE(estimator.confident());
}

TEST(EstimatorTest, WindowEvictsOldestObservation) {
  EstimatorOptions options;
  options.window = 3;
  options.quantile = 1.0;
  options.min_samples = 1;
  CompletionEstimator estimator(options);
  estimator.observe(100.0);  // evicted once 3 newer samples land
  estimator.observe(1.0);
  estimator.observe(2.0);
  estimator.observe(3.0);
  EXPECT_EQ(estimator.samples(), 4u);  // lifetime count keeps the gate open
  EXPECT_DOUBLE_EQ(estimator.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(estimator.quantile(0.0), 1.0);
}

TEST(EstimatorTest, ObserverSeesAcceptedSamplesOnly) {
  EstimatorOptions options;
  options.min_samples = 1;
  CompletionEstimator estimator(options);
  std::vector<double> seen;
  estimator.set_observer([&](double s) { seen.push_back(s); });
  estimator.observe(0.25);
  estimator.observe(-3.0);  // dropped: never reaches the observer
  estimator.observe(0.75);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 0.25);
  EXPECT_DOUBLE_EQ(seen[1], 0.75);
}

TEST(EstimatorTest, StepRateIsAnEwma) {
  EstimatorOptions options;
  options.rate_alpha = 0.5;
  CompletionEstimator estimator(options);
  EXPECT_EQ(estimator.step_rate(), 0.0);
  estimator.observe_rate(100.0);
  EXPECT_DOUBLE_EQ(estimator.step_rate(), 100.0);  // first sample seeds
  estimator.observe_rate(200.0);
  EXPECT_DOUBLE_EQ(estimator.step_rate(), 150.0);
}

// Property: quantiles are bounded by the observed min/max at every q.
TEST(EstimatorPropertyTest, QuantilesBoundedByObservedRange) {
  Rng rng(0xada9u);
  for (int round = 0; round < 50; ++round) {
    EstimatorOptions options;
    options.min_samples = 1;
    CompletionEstimator estimator(options);
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    const int n = 1 + static_cast<int>(rng.uniform_below(40));
    for (int i = 0; i < n; ++i) {
      const double sample = 1e-3 + 10.0 * rng.uniform01();
      lo = std::min(lo, sample);
      hi = std::max(hi, sample);
      estimator.observe(sample);
    }
    for (double q = 0.0; q <= 1.0; q += 0.1) {
      const double value = estimator.quantile(q);
      EXPECT_GE(value, lo) << "round " << round << " q " << q;
      EXPECT_LE(value, hi) << "round " << round << " q " << q;
    }
    const EstimatorSnapshot snap = estimator.stats();
    EXPECT_DOUBLE_EQ(snap.min_seconds, lo);
    EXPECT_DOUBLE_EQ(snap.max_seconds, hi);
  }
}

// Property: pointwise-dominating sample sets give dominating quantiles --
// nudging any subset of the samples upward can never LOWER an estimate.
TEST(EstimatorPropertyTest, QuantilesMonotoneInSampleSet) {
  Rng rng(0xada10u);
  for (int round = 0; round < 50; ++round) {
    EstimatorOptions options;
    options.min_samples = 1;
    CompletionEstimator lower(options);
    CompletionEstimator upper(options);
    const int n = 1 + static_cast<int>(rng.uniform_below(40));
    for (int i = 0; i < n; ++i) {
      const double sample = 1e-3 + 5.0 * rng.uniform01();
      const double bump = rng.uniform01() < 0.5 ? 0.0 : rng.uniform01();
      lower.observe(sample);
      upper.observe(sample + bump);
    }
    for (double q = 0.0; q <= 1.0; q += 0.05) {
      EXPECT_LE(lower.quantile(q), upper.quantile(q))
          << "round " << round << " q " << q;
    }
    EXPECT_LE(lower.deadline(0ms), upper.deadline(0ms)) << "round " << round;
  }
}

// Property: a fixed insertion order reproduces identical estimates -- the
// estimator is deterministic state, not a sketch.
TEST(EstimatorPropertyTest, DeterministicForFixedInsertionOrder) {
  Rng sample_rng(0xada11u);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(1e-3 + sample_rng.uniform01());
  }
  EstimatorOptions options;
  options.window = 64;  // exercise eviction too
  options.min_samples = 8;
  CompletionEstimator a(options);
  CompletionEstimator b(options);
  for (const double s : samples) {
    a.observe(s);
    b.observe(s);
  }
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << q;
  }
  EXPECT_EQ(a.deadline(5ms), b.deadline(5ms));
  EXPECT_EQ(a.samples(), b.samples());
}

// ---------------------------------------------------------------------------
// CalibrationLog

TEST(CalibrationTest, RoundTripsObservationsAcrossReopen) {
  const fs::path dir = fresh_dir("div_calibration_roundtrip");
  constexpr std::uint32_t kFingerprint = 0xfeedf00du;
  {
    CalibrationLog log(dir.string(), kFingerprint);
    EXPECT_EQ(log.loaded(), 0u);
    log.append(0.5);
    log.append(1.5);
    log.append(2.5);
  }
  CalibrationLog reopened(dir.string(), kFingerprint);
  EXPECT_EQ(reopened.loaded(), 3u);
  EstimatorOptions options;
  options.min_samples = 3;
  options.quantile = 1.0;
  options.safety_factor = 1.0;
  CompletionEstimator estimator(options);
  EXPECT_EQ(reopened.warm(estimator), 3u);
  EXPECT_TRUE(estimator.confident());
  EXPECT_DOUBLE_EQ(estimator.quantile_seconds(), 2.5);
  fs::remove_all(dir);
}

// Every sample is written through at append, with the log still open: a
// killed process keeps it, and no flush is left to call.
TEST(CalibrationTest, SamplesAreOnFileBeforeTheLogCloses) {
  const fs::path dir = fresh_dir("div_calibration_write_through");
  CalibrationLog log(dir.string(), 0x0badcafeu);
  log.append(0.25);
  log.append(0.75);
  EXPECT_EQ(read_journal(log.path()).records.size(), 3u);  // header + 2
  fs::remove_all(dir);
}

TEST(CalibrationTest, FingerprintMismatchColdStartsTheLog) {
  const fs::path dir = fresh_dir("div_calibration_mismatch");
  {
    CalibrationLog log(dir.string(), 0x11111111u);
    log.append(1.0);
    log.append(2.0);
  }
  // A different configuration fingerprint discards the stale samples ...
  CalibrationLog other(dir.string(), 0x22222222u);
  EXPECT_EQ(other.loaded(), 0u);
  other.append(7.0);
  // ... and the restarted log is keyed to the NEW fingerprint.
  CalibrationLog reopened(dir.string(), 0x22222222u);
  EXPECT_EQ(reopened.loaded(), 1u);
  fs::remove_all(dir);
}

TEST(CalibrationTest, GarbageFileColdStartsTheLog) {
  const fs::path dir = fresh_dir("div_calibration_garbage");
  {
    std::ofstream out(dir / CalibrationLog::file_name(), std::ios::binary);
    out << "this is not a journal";
  }
  CalibrationLog log(dir.string(), 0xabcdef01u);
  EXPECT_EQ(log.loaded(), 0u);
  log.append(3.0);
  CalibrationLog reopened(dir.string(), 0xabcdef01u);
  EXPECT_EQ(reopened.loaded(), 1u);
  fs::remove_all(dir);
}

TEST(CalibrationTest, NonPositiveObservationsAreNotPersisted) {
  const fs::path dir = fresh_dir("div_calibration_invalid");
  {
    CalibrationLog log(dir.string(), 0x5a5a5a5au);
    log.append(0.0);
    log.append(-1.0);
    log.append(4.0);
  }
  CalibrationLog reopened(dir.string(), 0x5a5a5a5au);
  EXPECT_EQ(reopened.loaded(), 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST(BreakerTest, StaysClosedBelowThreshold) {
  BreakerOptions options;
  options.failure_threshold = 3;
  const auto t0 = Clock::now();
  CircuitBreaker breaker(options, t0);
  EXPECT_TRUE(breaker.record_failure(t0 + 1ms).empty());
  EXPECT_TRUE(breaker.record_failure(t0 + 2ms).empty());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(breaker.backoff_multiplier(), 1.0);
  EXPECT_EQ(breaker.cap(8), 8u);
}

TEST(BreakerTest, OpensAtThresholdInsideWindow) {
  BreakerOptions options;
  options.failure_threshold = 3;
  options.window = 100ms;
  options.backoff_multiplier = 4.0;
  options.width_fraction = 0.5;
  const auto t0 = Clock::now();
  CircuitBreaker breaker(options, t0);
  breaker.record_failure(t0 + 1ms);
  breaker.record_failure(t0 + 2ms);
  const auto transitions = breaker.record_failure(t0 + 3ms);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].from, BreakerState::kClosed);
  EXPECT_EQ(transitions[0].to, BreakerState::kOpen);
  EXPECT_EQ(transitions[0].failures_in_window, 3u);
  EXPECT_DOUBLE_EQ(breaker.backoff_multiplier(), 4.0);
  EXPECT_EQ(breaker.cap(8), 4u);
  EXPECT_EQ(breaker.cap(1), 1u);  // the cap never stops progress entirely
}

TEST(BreakerTest, SlidingWindowForgetsOldFailures) {
  BreakerOptions options;
  options.failure_threshold = 3;
  options.window = 10ms;
  const auto t0 = Clock::now();
  CircuitBreaker breaker(options, t0);
  breaker.record_failure(t0 + 1ms);
  breaker.record_failure(t0 + 2ms);
  // 50ms later the first two failures have left the window.
  EXPECT_TRUE(breaker.record_failure(t0 + 52ms).empty());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.failures_in_window(), 1u);
}

TEST(BreakerTest, CooldownProbesHalfOpenThenClosesOnSuccess) {
  BreakerOptions options;
  options.failure_threshold = 2;
  options.window = 100ms;
  options.cooldown = 50ms;
  const auto t0 = Clock::now();
  CircuitBreaker breaker(options, t0);
  breaker.record_failure(t0 + 1ms);
  breaker.record_failure(t0 + 2ms);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.tick(t0 + 10ms).empty());  // cooldown still running
  const auto probe = breaker.tick(t0 + 60ms);
  ASSERT_EQ(probe.size(), 1u);
  EXPECT_EQ(probe[0].to, BreakerState::kHalfOpen);
  // HalfOpen probes at full speed and width.
  EXPECT_DOUBLE_EQ(breaker.backoff_multiplier(), 1.0);
  EXPECT_EQ(breaker.cap(8), 8u);
  const auto close = breaker.record_success(t0 + 61ms);
  ASSERT_EQ(close.size(), 1u);
  EXPECT_EQ(close[0].to, BreakerState::kClosed);
  // The close cleared the window: the next failure starts a fresh count.
  EXPECT_TRUE(breaker.record_failure(t0 + 62ms).empty());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(BreakerTest, FailureWhileHalfOpenReopens) {
  BreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown = 20ms;
  const auto t0 = Clock::now();
  CircuitBreaker breaker(options, t0);
  breaker.record_failure(t0 + 1ms);
  breaker.record_failure(t0 + 2ms);
  breaker.tick(t0 + 30ms);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  const auto reopen = breaker.record_failure(t0 + 31ms);
  ASSERT_EQ(reopen.size(), 1u);
  EXPECT_EQ(reopen[0].from, BreakerState::kHalfOpen);
  EXPECT_EQ(reopen[0].to, BreakerState::kOpen);
}

TEST(BreakerTest, FailuresWhileOpenPushTheProbeOut) {
  BreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown = 50ms;
  const auto t0 = Clock::now();
  CircuitBreaker breaker(options, t0);
  breaker.record_failure(t0 + 1ms);
  breaker.record_failure(t0 + 2ms);  // Open; probe at t0+52ms
  breaker.record_failure(t0 + 40ms);  // still failing: probe moves to t0+90ms
  EXPECT_TRUE(breaker.tick(t0 + 60ms).empty());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.tick(t0 + 95ms).empty());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(BreakerTest, SuccessWhileClosedIsANoop) {
  const auto t0 = Clock::now();
  CircuitBreaker breaker(BreakerOptions{}, t0);
  EXPECT_TRUE(breaker.record_success(t0 + 1ms).empty());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(BreakerTest, StateNamesRoundTrip) {
  EXPECT_STREQ(to_string(BreakerState::kClosed), "closed");
  EXPECT_STREQ(to_string(BreakerState::kOpen), "open");
  EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half-open");
}

// Property: under an arbitrary monotone event schedule the machine never
// breaks its invariants -- transitions chain (from == previous state),
// HalfOpen is only entered from Open via tick, the width cap stays >= 1,
// and the backoff multiplier widens exactly while Open.
TEST(BreakerPropertyTest, FuzzedSchedulesPreserveInvariants) {
  Rng rng(0xb4ea4e4u);
  for (int round = 0; round < 30; ++round) {
    BreakerOptions options;
    options.failure_threshold = 1 + rng.uniform_below(4);
    options.window = std::chrono::milliseconds(1 + rng.uniform_below(50));
    options.cooldown = std::chrono::milliseconds(1 + rng.uniform_below(50));
    const auto t0 = Clock::now();
    CircuitBreaker breaker(options, t0);
    BreakerState previous = BreakerState::kClosed;
    auto now = t0;
    for (int step = 0; step < 200; ++step) {
      now += std::chrono::milliseconds(rng.uniform_below(10));
      std::vector<BreakerTransition> transitions;
      switch (rng.uniform_below(3)) {
        case 0: transitions = breaker.record_failure(now); break;
        case 1: transitions = breaker.record_success(now); break;
        default: transitions = breaker.tick(now); break;
      }
      for (const BreakerTransition& transition : transitions) {
        EXPECT_EQ(transition.from, previous) << "round " << round;
        EXPECT_NE(transition.from, transition.to) << "round " << round;
        if (transition.to == BreakerState::kHalfOpen) {
          EXPECT_EQ(transition.from, BreakerState::kOpen) << "round " << round;
        }
        if (transition.from == BreakerState::kClosed) {
          EXPECT_EQ(transition.to, BreakerState::kOpen) << "round " << round;
        }
        previous = transition.to;
      }
      EXPECT_EQ(breaker.state(), previous) << "round " << round;
      EXPECT_GE(breaker.cap(1), 1u);
      EXPECT_GE(breaker.cap(7), 1u);
      EXPECT_LE(breaker.cap(7), 7u);
      if (breaker.state() == BreakerState::kOpen) {
        EXPECT_DOUBLE_EQ(breaker.backoff_multiplier(),
                         options.backoff_multiplier);
      } else {
        EXPECT_DOUBLE_EQ(breaker.backoff_multiplier(), 1.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Supervision journal records

TEST(SupervisionRecordTest, CodecRoundTrips) {
  SupervisionEvent event;
  event.kind = SupervisionEvent::Kind::kDeadlineAdapt;
  event.backoff_ms = 450.0;
  event.detail = "adaptive deadline now 450ms";
  const std::string record = encode_supervision_record(event);
  EXPECT_TRUE(is_supervision_record(record));
  EXPECT_FALSE(is_quarantine_record(record));
  EXPECT_EQ(decode_supervision_record(record), event.to_json());
}

TEST(SupervisionRecordTest, PreSupervisionReadersFailLoudly) {
  SupervisionEvent event;
  event.kind = SupervisionEvent::Kind::kBreakerOpen;
  const std::string record = encode_supervision_record(event);
  // A reader that does not know about supervision records must throw, not
  // misparse the record as a replica payload.
  EXPECT_THROW(decode_campaign_record(record), std::invalid_argument);
  EXPECT_THROW(decode_supervision_record("replica 4 completed"),
               std::invalid_argument);
}

TEST(SupervisionRecordTest, UnsupervisedResumeRefusesSupervisedJournal) {
  const fs::path dir = fresh_dir("div_supervision_refusal");
  CampaignOptions options;
  options.directory = dir.string();
  options.meta = "refusal-test 1\n";
  const auto task = [](std::size_t replica,
                       Rng&) -> std::optional<std::string> {
    std::string payload = "p";
    payload += std::to_string(replica);
    return payload;
  };
  ASSERT_TRUE(run_campaign(1, task, options).complete());
  {
    // A supervised session would have journaled its deadline decisions.
    SupervisionEvent event;
    event.kind = SupervisionEvent::Kind::kDeadlineKill;
    event.replica = 0;
    JournalWriter writer((dir / "results.journal").string());
    writer.append(encode_supervision_record(event));
    writer.flush();
  }
  options.resume = true;
  EXPECT_THROW(run_campaign(2, task, options), std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Supervisor integration (thread mode)

std::optional<std::string> rng_payload(std::size_t replica, Rng& rng) {
  return "r" + std::to_string(replica) + ":" + std::to_string(rng.next());
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

TEST(AdaptiveSupervisorTest, LearnedDeadlineKillsHangWithoutFixedDeadline) {
  // No fixed deadline at all: the healthy replicas teach the estimator the
  // completion-time distribution, the confidence gate opens, and the hung
  // replica is killed at the LEARNED deadline, retried (it hangs again),
  // and quarantined -- with every healthy payload intact.
  constexpr std::uint64_t kMaster = 90;
  const std::size_t n = 8;
  const std::size_t hung = n - 1;
  EstimatorOptions est_options;
  est_options.quantile = 0.5;
  est_options.safety_factor = 3.0;
  est_options.min_samples = 4;
  CompletionEstimator estimator(est_options);
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 2;
  options.max_attempts = 2;
  options.backoff_base = 1ms;
  options.deadline = 0ms;  // auto mode: no fixed budget to fall back on
  options.deadline_auto = true;
  options.estimator = &estimator;
  std::vector<SupervisionEvent> events;
  std::mutex events_mu;
  options.on_event = [&](const SupervisionEvent& event) {
    std::lock_guard<std::mutex> lock(events_mu);
    events.push_back(event);
  };
  Collector got(n);
  const SupervisorReport report = run_supervised_set(
      iota_ids(n),
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        if (replica == hung) {
          while (!cancel.requested()) {
            std::this_thread::sleep_for(1ms);
          }
          EXPECT_EQ(cancel.reason(), CancelReason::kDeadline);
          return std::nullopt;
        }
        // Healthy work takes a visible, consistent beat so the learned
        // deadline is far below the hang's unbounded wall time.
        std::this_thread::sleep_for(5ms);
        return rng_payload(replica, rng);
      },
      got.sink(), options);

  EXPECT_EQ(report.succeeded, n - 1);
  EXPECT_GE(report.deadline_kills, 1u);
  EXPECT_GE(report.deadline_adapts, 1u);
  EXPECT_GT(report.learned_deadline_ms, 0.0);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].replica, hung);
  for (std::size_t replica = 0; replica < n - 1; ++replica) {
    ASSERT_TRUE(got.payloads[replica].has_value()) << replica;
    Rng expected(Rng::retry_seed(kMaster, replica, 0));
    EXPECT_EQ(*got.payloads[replica],
              "r" + std::to_string(replica) + ":" +
                  std::to_string(expected.next()));
  }
  bool saw_adapt = false;
  bool saw_learned_kill = false;
  for (const SupervisionEvent& event : events) {
    if (event.kind == SupervisionEvent::Kind::kDeadlineAdapt) {
      saw_adapt = true;
      EXPECT_GT(event.backoff_ms, 0.0);
      EXPECT_NE(event.detail.find("adaptive deadline"), std::string::npos);
    }
    if (event.kind == SupervisionEvent::Kind::kDeadlineKill) {
      saw_learned_kill = true;
      EXPECT_NE(event.detail.find("learned deadline"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_adapt);
  EXPECT_TRUE(saw_learned_kill);
}

TEST(AdaptiveSupervisorTest, PredictiveSpeculationWinsOnLearnedQuantile) {
  // Once the estimator is confident, speculation no longer waits for this
  // run's median warmup -- an attempt projected past the learned quantile
  // gets its twin immediately, and the twin (fast second execution) wins.
  constexpr std::uint64_t kMaster = 91;
  const std::size_t n = 8;
  const std::size_t slow = n - 1;
  EstimatorOptions est_options;
  est_options.quantile = 0.5;
  est_options.min_samples = 4;
  CompletionEstimator estimator(est_options);
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 2;
  options.straggler_factor = 3.0;
  options.straggler_warmup = 1000;  // reactive path unreachable: must predict
  options.estimator = &estimator;
  std::atomic<unsigned> slow_execs{0};
  Collector got(n);
  const SupervisorReport report = run_supervised_set(
      iota_ids(n),
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        auto payload = rng_payload(replica, rng);
        if (replica == slow && slow_execs.fetch_add(1) == 0) {
          for (int i = 0; i < 10000 && !cancel.requested(); ++i) {
            std::this_thread::sleep_for(1ms);
          }
          if (cancel.requested()) {
            EXPECT_EQ(cancel.reason(), CancelReason::kSuperseded);
            return std::nullopt;
          }
        } else if (replica != slow) {
          std::this_thread::sleep_for(2ms);
        }
        return payload;
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, n);
  EXPECT_GE(report.speculative_launches, 1u);
  EXPECT_GE(report.speculative_wins, 1u);
  EXPECT_EQ(report.retries, 0u);
  // Same attempt-0 stream regardless of which instance won.
  Rng expected(Rng::retry_seed(kMaster, slow, 0));
  ASSERT_TRUE(got.payloads[slow].has_value());
  EXPECT_EQ(*got.payloads[slow],
            "r" + std::to_string(slow) + ":" + std::to_string(expected.next()));
}

TEST(AdaptiveSupervisorTest, BreakerOpensOnTransientFailureSpike) {
  // Four transient failures inside the window trip the breaker; the run
  // still completes (retries succeed) and the trip is visible in both the
  // report counters and the event stream.
  SupervisorOptions options;
  options.master_seed = 17;
  options.num_threads = 2;
  options.max_attempts = 3;
  options.backoff_base = 1ms;
  options.breaker_enabled = true;
  options.breaker.failure_threshold = 4;
  options.breaker.window = 10'000ms;   // every failure stays in the window
  options.breaker.cooldown = 10'000ms;  // no close during the test
  std::vector<SupervisionEvent::Kind> kinds;
  std::mutex kinds_mu;
  options.on_event = [&](const SupervisionEvent& event) {
    std::lock_guard<std::mutex> lock(kinds_mu);
    kinds.push_back(event.kind);
  };
  std::atomic<unsigned> failures{0};
  const std::size_t n = 6;
  Collector got(n);
  const SupervisorReport report = run_supervised_set(
      iota_ids(n),
      [&](std::size_t replica, Rng& rng,
          const CancelToken&) -> std::optional<std::string> {
        // Each replica's first execution fails: 6 transient failures, well
        // past the threshold of 4.
        if (failures.fetch_add(1) < n) {
          throw std::runtime_error("io timeout: transient spike");
        }
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, n);
  EXPECT_GE(report.breaker_opens, 1u);
  const auto opened =
      std::count(kinds.begin(), kinds.end(),
                 SupervisionEvent::Kind::kBreakerOpen);
  EXPECT_EQ(static_cast<std::uint64_t>(opened), report.breaker_opens);
}

// Which attempt is this?  The stream is keyed by (master, replica,
// attempt), so probing the candidate seeds recovers the index.  Must run
// before the task consumes any randomness.
unsigned attempt_of(std::uint64_t master, std::size_t replica,
                    const Rng& rng) {
  unsigned attempt = 0;
  while (attempt < 8 &&
         Rng(Rng::retry_seed(master, replica, attempt)).state() !=
             rng.state()) {
    ++attempt;
  }
  return attempt;
}

TEST(AdaptiveSupervisorTest, OpenBreakerCapsThreadWidth) {
  // Every attempt 0 throws, so the first failure trips the breaker
  // (threshold 1, no close for 10 s) and every retry runs while it is Open.
  // The cap is floor(4 x 0.5) = 2: four workers are free, but at most two
  // 20 ms retries may be in flight at once.
  constexpr std::uint64_t kMaster = 23;
  const std::size_t n = 8;
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 4;
  options.max_attempts = 2;
  options.backoff_base = 1ms;
  options.breaker_enabled = true;
  options.breaker.failure_threshold = 1;
  options.breaker.window = 10'000ms;
  options.breaker.cooldown = 10'000ms;
  std::atomic<int> retrying{0};
  std::atomic<int> peak{0};
  Collector got(n);
  const SupervisorReport report = run_supervised_set(
      iota_ids(n),
      [&](std::size_t replica, Rng& rng,
          const CancelToken&) -> std::optional<std::string> {
        if (attempt_of(kMaster, replica, rng) == 0) {
          throw std::runtime_error("io timeout: transient spike");
        }
        const int now_retrying = retrying.fetch_add(1) + 1;
        int seen = peak.load();
        while (now_retrying > seen &&
               !peak.compare_exchange_weak(seen, now_retrying)) {
        }
        std::this_thread::sleep_for(20ms);
        retrying.fetch_sub(1);
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, n);
  EXPECT_EQ(report.retries, n);
  EXPECT_EQ(report.breaker_opens, 1u);
  EXPECT_LE(peak.load(), 2) << "an Open breaker must cap in-flight width";
  for (std::size_t replica = 0; replica < n; ++replica) {
    ASSERT_TRUE(got.payloads[replica].has_value()) << replica;
    Rng expected(Rng::retry_seed(kMaster, replica, 1));
    EXPECT_EQ(got.payloads[replica], rng_payload(replica, expected));
  }
}

TEST(AdaptiveSupervisorTest, EstimatorLearnsFromSupervisedSuccesses) {
  // The supervisor feeds every successful attempt's wall time back into the
  // estimator it was given -- that is the loop that makes a later
  // --deadline-ms auto session (or this one, after the gate opens) smart.
  EstimatorOptions est_options;
  est_options.min_samples = 4;
  CompletionEstimator estimator(est_options);
  SupervisorOptions options;
  options.num_threads = 2;
  options.estimator = &estimator;
  Collector got(6);
  const SupervisorReport report = run_supervised_set(
      iota_ids(6),
      [&](std::size_t replica, Rng& rng,
          const CancelToken&) -> std::optional<std::string> {
        std::this_thread::sleep_for(1ms);
        return rng_payload(replica, rng);
      },
      got.sink(), options);
  EXPECT_EQ(report.succeeded, 6u);
  EXPECT_EQ(estimator.samples(), 6u);
  EXPECT_TRUE(estimator.confident());
  EXPECT_GT(estimator.quantile_seconds(), 0.0);
}

}  // namespace
}  // namespace divlib
