#include "engine/montecarlo.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

namespace divlib {
namespace {

TEST(MonteCarlo, ResolveThreadCountHonorsExplicitValue) {
  EXPECT_EQ(resolve_thread_count({.num_threads = 3}), 3u);
  EXPECT_GE(resolve_thread_count({.num_threads = 0}), 1u);
}

TEST(MonteCarlo, RunsEveryReplicaExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> per_replica(100);
  run_replicas_erased(
      100,
      [&](std::size_t replica, Rng&) {
        ++calls;
        ++per_replica[replica];
      },
      {.master_seed = 1, .num_threads = 4});
  EXPECT_EQ(calls.load(), 100);
  for (const auto& count : per_replica) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(MonteCarlo, ZeroReplicasIsNoop) {
  int calls = 0;
  run_replicas_erased(0, [&](std::size_t, Rng&) { ++calls; }, {});
  EXPECT_EQ(calls, 0);
}

TEST(MonteCarlo, ResultsAreDeterministicAcrossThreadCounts) {
  const auto collect = [](unsigned threads) {
    return run_replicas<std::uint64_t>(
        64, [](std::size_t, Rng& rng) { return rng.next(); },
        {.master_seed = 99, .num_threads = threads});
  };
  const auto serial = collect(1);
  const auto parallel = collect(8);
  EXPECT_EQ(serial, parallel);
}

TEST(MonteCarlo, ReplicasReceiveIndependentStreams) {
  const auto values = run_replicas<std::uint64_t>(
      256, [](std::size_t, Rng& rng) { return rng.next(); },
      {.master_seed = 7, .num_threads = 4});
  const std::set<std::uint64_t> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), values.size());
}

TEST(MonteCarlo, MasterSeedChangesAllStreams) {
  const auto a = run_replicas<std::uint64_t>(
      16, [](std::size_t, Rng& rng) { return rng.next(); }, {.master_seed = 1});
  const auto b = run_replicas<std::uint64_t>(
      16, [](std::size_t, Rng& rng) { return rng.next(); }, {.master_seed = 2});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NE(a[i], b[i]);
  }
}

TEST(MonteCarlo, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      run_replicas_erased(
          16,
          [](std::size_t replica, Rng&) {
            if (replica == 7) {
              throw std::runtime_error("boom");
            }
          },
          {.master_seed = 5, .num_threads = 4}),
      std::runtime_error);
}

TEST(MonteCarlo, TypedWrapperPreservesReplicaOrder) {
  const auto values = run_replicas<std::size_t>(
      50, [](std::size_t replica, Rng&) { return replica * 2; },
      {.master_seed = 3, .num_threads = 8});
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i * 2);
  }
}

TEST(MonteCarlo, LowestReplicaExceptionWinsDeterministically) {
  // Replicas 9 and 33 both throw; whatever the thread schedule, the caller
  // must always observe replica 9's message.
  for (int round = 0; round < 5; ++round) {
    std::string caught;
    try {
      run_replicas_erased(
          64,
          [](std::size_t replica, Rng&) {
            if (replica == 9) {
              throw std::runtime_error("error from replica 9");
            }
            if (replica == 33) {
              throw std::runtime_error("error from replica 33");
            }
          },
          {.master_seed = 5, .num_threads = 8});
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& error) {
      caught = error.what();
    }
    EXPECT_EQ(caught, "error from replica 9") << "round " << round;
  }
}

// Regression: a worker that recorded an error used to exit only its OWN
// claim loop, so with one thread the batch stopped at the failure while with
// N threads the surviving workers ran every remaining replica -- the
// executed set depended on the worker count.  The shared stop flag makes all
// workers stop claiming after the first recorded error.  The timing below
// forms a deterministic wave: replicas 0..2 sleep ~250ms while replica 3
// fails after ~10ms, so with 4 threads the flag is set long before any
// worker frees up to claim replica 4 (even badly staggered thread startup
// stays far inside the 250ms window); with 1 thread execution is sequential
// 0, 1, 2, then 3 throws.  Both ways the executed set is exactly {0,1,2,3}.
TEST(MonteCarlo, ErrorStopsNewClaimsForEveryThreadCount) {
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<int>> executed(32);
    std::string caught;
    try {
      run_replicas_erased(
          32,
          [&](std::size_t replica, Rng&) {
            ++executed[replica];
            if (replica == 3) {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
              throw std::runtime_error("error from replica 3");
            }
            if (replica < 3) {
              std::this_thread::sleep_for(std::chrono::milliseconds(250));
            }
          },
          {.master_seed = 5, .num_threads = threads});
      FAIL() << "expected a rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& error) {
      caught = error.what();
    }
    EXPECT_EQ(caught, "error from replica 3") << "threads " << threads;
    for (std::size_t replica = 0; replica < executed.size(); ++replica) {
      EXPECT_EQ(executed[replica].load(), replica <= 3 ? 1 : 0)
          << "replica " << replica << " with " << threads << " thread(s)";
    }
  }
}

// Regression: cancelled used to be inferred as attempted < replicas, so a
// token that fired between the last claim and the join reported
// cancelled == false and the caller could not tell a clean finish from a
// cancelled one.  The driver now reads the token directly.
TEST(MonteCarlo, CancelAfterLastClaimStillReportsCancelled) {
  CancelToken token;
  MonteCarloOptions options;
  options.num_threads = 2;
  options.cancel = &token;
  const BatchReport report = run_replicas_isolated_erased(
      8,
      [&](std::size_t replica, Rng&) {
        if (replica == 7) {
          // Fires while the LAST replica is in flight: every slot has been
          // claimed, so attempted == replicas when the pool drains.
          token.request();
        }
      },
      options);
  EXPECT_EQ(report.attempted, 8u);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.cancelled);
}

TEST(MonteCarlo, UnfiredTokenReportsNotCancelled) {
  CancelToken token;
  MonteCarloOptions options;
  options.num_threads = 2;
  options.cancel = &token;
  const BatchReport report =
      run_replicas_isolated_erased(8, [](std::size_t, Rng&) {}, options);
  EXPECT_EQ(report.attempted, 8u);
  EXPECT_FALSE(report.cancelled);
}

// The isolated driver runs on the supervisor's thread executor, which runs
// no retries once the operator token has fired: a replica whose attempt
// throws after the cancel is left unfinished -- counted in neither attempted
// nor errors -- instead of being retried or quarantined.  (The old worker
// loop retried it to a verdict: attempted 1, one error.)
TEST(MonteCarlo, AttemptFailingAfterCancelIsLeftUnfinished) {
  for (const unsigned max_attempts : {1u, 3u}) {
    CancelToken token;
    MonteCarloOptions options;
    options.num_threads = 1;
    options.max_attempts = max_attempts;
    options.cancel = &token;
    std::atomic<int> calls{0};
    const BatchReport report = run_replicas_isolated_erased(
        4,
        [&](std::size_t replica, Rng&) {
          ++calls;
          if (replica == 0) {
            token.request();
            throw std::runtime_error("fails after the cancel");
          }
        },
        options);
    EXPECT_EQ(calls.load(), 1) << "max_attempts " << max_attempts;
    EXPECT_TRUE(report.cancelled);
    EXPECT_EQ(report.attempted, 0u) << "max_attempts " << max_attempts;
    EXPECT_TRUE(report.ok()) << "max_attempts " << max_attempts;
    EXPECT_EQ(report.retries, 0u);
  }
}

TEST(MonteCarlo, RetrySeedAttemptZeroMatchesSubstream) {
  EXPECT_EQ(Rng::retry_seed(42, 7, 0), Rng::substream_seed(42, 7));
  const std::uint64_t a0 = Rng::retry_seed(42, 7, 0);
  const std::uint64_t a1 = Rng::retry_seed(42, 7, 1);
  const std::uint64_t a2 = Rng::retry_seed(42, 7, 2);
  EXPECT_NE(a0, a1);
  EXPECT_NE(a1, a2);
  EXPECT_NE(Rng::retry_seed(42, 8, 1), a1);
}

TEST(MonteCarlo, IsolatedMatchesPlainDriverWhenHealthy) {
  const auto task = [](std::size_t, Rng& rng) { return rng.next(); };
  const MonteCarloOptions options{.master_seed = 99, .num_threads = 4};
  const auto plain = run_replicas<std::uint64_t>(64, task, options);
  const auto batch = run_replicas_isolated<std::uint64_t>(64, task, options);
  ASSERT_TRUE(batch.report.ok());
  EXPECT_EQ(batch.report.retries, 0u);
  ASSERT_EQ(batch.results.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(batch.results[i].has_value());
    EXPECT_EQ(*batch.results[i], plain[i]);
  }
}

TEST(MonteCarlo, IsolatedDriverSurvivesThrowingReplica) {
  const auto batch = run_replicas_isolated<std::uint64_t>(
      16,
      [](std::size_t replica, Rng& rng) -> std::uint64_t {
        if (replica == 7) {
          throw std::runtime_error("replica 7 is cursed");
        }
        return rng.next();
      },
      {.master_seed = 11, .num_threads = 4, .max_attempts = 2});
  EXPECT_FALSE(batch.report.ok());
  ASSERT_EQ(batch.report.errors.size(), 1u);
  EXPECT_EQ(batch.report.errors[0].replica, 7u);
  EXPECT_EQ(batch.report.errors[0].attempts, 2u);
  EXPECT_EQ(batch.report.errors[0].message, "replica 7 is cursed");
  EXPECT_EQ(batch.report.retries, 1u);  // one retry, then gave up
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].has_value(), i != 7) << "replica " << i;
  }
}

TEST(MonteCarlo, RetriesAreReproducibleFromRetrySeeds) {
  // Replica 5 fails its first two attempts; the surviving value must come
  // from the attempt-2 stream, reproducible offline from retry_seed.
  constexpr std::uint64_t kMaster = 77;
  std::array<std::atomic<unsigned>, 16> attempt_counts{};
  const auto batch = run_replicas_isolated<std::uint64_t>(
      16,
      [&attempt_counts](std::size_t replica, Rng& rng) -> std::uint64_t {
        const unsigned attempt = attempt_counts[replica].fetch_add(1);
        if (replica == 5 && attempt < 2) {
          throw std::runtime_error("flaky");
        }
        return rng.next();
      },
      {.master_seed = kMaster, .num_threads = 4, .max_attempts = 3});
  ASSERT_TRUE(batch.report.ok());
  EXPECT_EQ(batch.report.retries, 2u);
  ASSERT_TRUE(batch.results[5].has_value());
  Rng expected(Rng::retry_seed(kMaster, 5, 2));
  EXPECT_EQ(*batch.results[5], expected.next());
  Rng plain(Rng::substream_seed(kMaster, 3));
  ASSERT_TRUE(batch.results[3].has_value());
  EXPECT_EQ(*batch.results[3], plain.next());
}

// Regression: ReplicaError::attempts is the number of attempts actually
// CONSUMED, not the configured budget.  The isolated driver happens to
// exhaust the budget before recording an error, so the two coincide here --
// but the field's meaning matters to the supervisor, which stops early on
// deterministic failures.  Pin the consumed-count semantics both ways.
TEST(MonteCarlo, ReplicaErrorReportsAttemptsConsumed) {
  std::array<std::atomic<unsigned>, 8> calls{};
  const auto batch = run_replicas_isolated<int>(
      8,
      [&calls](std::size_t replica, Rng&) -> int {
        ++calls[replica];
        if (replica == 2) {
          throw std::runtime_error("always fails");
        }
        if (replica == 5 && calls[5].load() < 2) {
          throw std::runtime_error("fails once");
        }
        return 1;
      },
      {.master_seed = 9, .num_threads = 2, .max_attempts = 3});
  // Success on the first try consumes one call; success after one retry
  // consumes two; neither lands in the error list.
  EXPECT_EQ(calls[0].load(), 1u);
  EXPECT_EQ(calls[5].load(), 2u);
  ASSERT_TRUE(batch.results[5].has_value());
  ASSERT_EQ(batch.report.errors.size(), 1u);
  EXPECT_EQ(batch.report.errors[0].replica, 2u);
  EXPECT_EQ(batch.report.errors[0].attempts, 3u);  // consumed == calls made
  EXPECT_EQ(calls[2].load(), 3u);
}

TEST(MonteCarlo, RetriedReplicaResultIndependentOfOtherReplicasRetries) {
  // Replica 5 retries once in both runs; the set of OTHER replicas that
  // retried differs.  Isolation means replica 5's surviving value may not
  // change -- retries draw from per-(replica, attempt) streams, never from a
  // shared sequence another replica could perturb.
  const auto run_with_flaky =
      [](std::initializer_list<std::size_t> flaky_once) {
        std::array<std::atomic<unsigned>, 16> calls{};
        const std::set<std::size_t> flaky(flaky_once);
        return run_replicas_isolated<std::uint64_t>(
            16,
            [&](std::size_t replica, Rng& rng) -> std::uint64_t {
              if (flaky.count(replica) != 0 &&
                  calls[replica].fetch_add(1) == 0) {
                throw std::runtime_error("flaky");
              }
              return rng.next();
            },
            {.master_seed = 13, .num_threads = 4, .max_attempts = 2});
      };
  const auto only5 = run_with_flaky({5});
  const auto many = run_with_flaky({1, 5, 9, 12});
  ASSERT_TRUE(only5.report.ok());
  ASSERT_TRUE(many.report.ok());
  ASSERT_TRUE(only5.results[5].has_value());
  ASSERT_TRUE(many.results[5].has_value());
  EXPECT_EQ(*only5.results[5], *many.results[5]);
  // And the never-flaky replicas are untouched by anyone's retries.
  for (const std::size_t replica : {0u, 3u, 7u, 15u}) {
    EXPECT_EQ(*only5.results[replica], *many.results[replica])
        << "replica " << replica;
  }
}

TEST(MonteCarlo, IsolatedErrorsSortedByReplicaIndex) {
  const auto batch = run_replicas_isolated<int>(
      32,
      [](std::size_t replica, Rng&) -> int {
        if (replica % 11 == 3) {  // replicas 3, 14, 25
          throw std::runtime_error("bad");
        }
        return 1;
      },
      {.master_seed = 2, .num_threads = 8, .max_attempts = 1});
  ASSERT_EQ(batch.report.errors.size(), 3u);
  EXPECT_EQ(batch.report.errors[0].replica, 3u);
  EXPECT_EQ(batch.report.errors[1].replica, 14u);
  EXPECT_EQ(batch.report.errors[2].replica, 25u);
  EXPECT_EQ(batch.report.retries, 0u);  // max_attempts = 1: no retries
}

}  // namespace
}  // namespace divlib
