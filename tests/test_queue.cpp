// The durable campaign queue: record codec, replay state machine, the
// flock-per-operation service (admission, dedup, leases, expiry, drain),
// crash-point injection on the queue journal itself, and the coordinator
// dispatch loop.
#include "queue/queue_service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>
#ifdef __linux__
#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "io/crc32.hpp"
#include "io/failpoint.hpp"
#include "io/journal.hpp"
#include "queue/coordinator.hpp"
#include "queue/queue_records.hpp"
#include "rng/rng.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

// --- records ---------------------------------------------------------------

TEST(QueueRecordTest, PhaseNamesRoundTrip) {
  const CampaignPhase phases[] = {
      CampaignPhase::kQueued,   CampaignPhase::kLeased,
      CampaignPhase::kRunning,  CampaignPhase::kComplete,
      CampaignPhase::kDegraded, CampaignPhase::kFailed,
      CampaignPhase::kCancelled,
  };
  for (const CampaignPhase phase : phases) {
    EXPECT_EQ(parse_campaign_phase(to_string(phase)), phase);
  }
  EXPECT_THROW(parse_campaign_phase("limbo"), std::invalid_argument);
  EXPECT_FALSE(phase_is_terminal(CampaignPhase::kQueued));
  EXPECT_FALSE(phase_is_terminal(CampaignPhase::kLeased));
  EXPECT_FALSE(phase_is_terminal(CampaignPhase::kRunning));
  EXPECT_TRUE(phase_is_terminal(CampaignPhase::kComplete));
  EXPECT_TRUE(phase_is_terminal(CampaignPhase::kDegraded));
  EXPECT_TRUE(phase_is_terminal(CampaignPhase::kFailed));
  EXPECT_TRUE(phase_is_terminal(CampaignPhase::kCancelled));
}

TEST(QueueRecordTest, EveryKindRoundTrips) {
  std::vector<QueueRecord> records;
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kSubmit;
    r.campaign = 3;
    r.fingerprint = 0xDEADBEEFu;
    r.text = "--graph=complete:64 --rounds=100";
    records.push_back(r);
  }
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kLease;
    r.campaign = 3;
    r.lease = 7;
    r.deadline_ms = 1'700'000'123'456;
    records.push_back(r);
  }
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kRenew;
    r.campaign = 3;
    r.lease = 7;
    r.deadline_ms = 1'700'000'999'999;
    records.push_back(r);
  }
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kRunning;
    r.campaign = 3;
    r.lease = 7;
    records.push_back(r);
  }
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kRequeue;
    r.campaign = 3;
    r.lease = 7;
    r.text = "lease 7 expired (deadline passed)";
    records.push_back(r);
  }
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kFinish;
    r.campaign = 3;
    r.lease = 8;
    r.phase = CampaignPhase::kDegraded;
    r.text = "2 of 64 replicas quarantined";
    records.push_back(r);
  }
  {
    QueueRecord r;
    r.kind = QueueRecord::Kind::kCancel;
    r.campaign = 4;
    r.text = "operator drain";
    records.push_back(r);
  }
  for (const QueueRecord& original : records) {
    const QueueRecord decoded = decode_queue_record(
        encode_queue_record(original));
    EXPECT_EQ(decoded.kind, original.kind);
    EXPECT_EQ(decoded.campaign, original.campaign);
    EXPECT_EQ(decoded.lease, original.lease);
    EXPECT_EQ(decoded.fingerprint, original.fingerprint);
    EXPECT_EQ(decoded.deadline_ms, original.deadline_ms);
    EXPECT_EQ(decoded.phase, original.phase);
    EXPECT_EQ(decoded.text, original.text);
  }
}

TEST(QueueRecordTest, RejectsMalformedLines) {
  EXPECT_THROW(decode_queue_record(""), std::invalid_argument);
  EXPECT_THROW(decode_queue_record("bogus 1 2"), std::invalid_argument);
  EXPECT_THROW(decode_queue_record("submit"), std::invalid_argument);
  EXPECT_THROW(decode_queue_record("submit x deadbeef cfg"),
               std::invalid_argument);
  EXPECT_THROW(decode_queue_record("lease 1 2"), std::invalid_argument);
  EXPECT_THROW(decode_queue_record("running 1"), std::invalid_argument);
  EXPECT_THROW(decode_queue_record("finish 1 2 limbo detail"),
               std::invalid_argument);
}

// --- replay ----------------------------------------------------------------

std::string submit_line(std::uint64_t id, const std::string& config) {
  QueueRecord r;
  r.kind = QueueRecord::Kind::kSubmit;
  r.campaign = id;
  r.fingerprint = 0x1234ABCDu;
  r.text = config;
  return encode_queue_record(r);
}

TEST(QueueReplayTest, FoldsALifecycle) {
  const QueueView view = replay_queue({
      submit_line(1, "--alpha=1"),
      submit_line(2, "--beta=2"),
      "lease 1 1 5000",
      "running 1 1",
      "finish 1 1 complete all replicas finished",
  });
  ASSERT_EQ(view.campaigns.size(), 2u);
  EXPECT_EQ(view.campaigns[0].phase, CampaignPhase::kComplete);
  EXPECT_EQ(view.campaigns[0].note, "all replicas finished");
  EXPECT_EQ(view.campaigns[1].phase, CampaignPhase::kQueued);
  EXPECT_EQ(view.next_campaign_id, 3u);
  EXPECT_EQ(view.next_lease_id, 2u);
  EXPECT_TRUE(view.has_live_work());
  ASSERT_NE(view.oldest_queued(), nullptr);
  EXPECT_EQ(view.oldest_queued()->id, 2u);
}

TEST(QueueReplayTest, RequeueClearsTheLeaseAndCounts) {
  const QueueView view = replay_queue({
      submit_line(1, "--alpha=1"),
      "lease 1 1 5000",
      "requeue 1 1 lease 1 expired",
      "lease 1 2 9000",
  });
  ASSERT_EQ(view.campaigns.size(), 1u);
  EXPECT_EQ(view.campaigns[0].phase, CampaignPhase::kLeased);
  EXPECT_EQ(view.campaigns[0].lease, 2u);
  EXPECT_EQ(view.campaigns[0].requeues, 1u);
  EXPECT_EQ(view.next_lease_id, 3u);
}

TEST(QueueReplayTest, IllegalTransitionsThrowNamingTheRecord) {
  // Leasing a campaign that is already leased.
  try {
    replay_queue({submit_line(1, "c"), "lease 1 1 5000", "lease 1 2 6000"});
    FAIL() << "expected replay to reject a double lease";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("record 2"), std::string::npos)
        << error.what();
  }
  // Operations against a stale lease id.
  EXPECT_THROW(replay_queue({submit_line(1, "c"), "lease 1 1 5000",
                             "requeue 1 1 expired", "finish 1 1 complete x"}),
               std::runtime_error);
  EXPECT_THROW(replay_queue({submit_line(1, "c"), "lease 1 1 5000",
                             "renew 1 9 8000"}),
               std::runtime_error);
  // Running without holding a lease.
  EXPECT_THROW(replay_queue({submit_line(1, "c"), "running 1 1"}),
               std::runtime_error);
  // Cancel only applies to Queued campaigns.
  EXPECT_THROW(replay_queue({submit_line(1, "c"), "lease 1 1 5000",
                             "cancel 1 drain"}),
               std::runtime_error);
  // Duplicate campaign id.
  EXPECT_THROW(replay_queue({submit_line(1, "c"), submit_line(1, "d")}),
               std::runtime_error);
  // Lease ids must be fresh (monotonic): reusing one is a zombie write.
  EXPECT_THROW(replay_queue({submit_line(1, "c"), "lease 1 1 5000",
                             "requeue 1 1 expired", "lease 1 1 6000"}),
               std::runtime_error);
  // Terminal means terminal.
  EXPECT_THROW(replay_queue({submit_line(1, "c"), "lease 1 1 5000",
                             "finish 1 1 failed boom", "lease 1 2 7000"}),
               std::runtime_error);
}

TEST(QueueReplayTest, FoldFromAnIndexContinuesTheReplayAndNamesGlobalIndices) {
  const std::vector<std::string> journal = {
      submit_line(1, "--alpha=1"), submit_line(2, "--beta=2"),
      "lease 1 1 5000",            "running 1 1",
      "finish 1 1 complete done",  "lease 2 2 6000",
  };
  for (std::size_t split = 0; split <= journal.size(); ++split) {
    QueueView view = replay_queue(
        std::vector<std::string>(journal.begin(), journal.begin() + split));
    fold_queue_records(
        view, std::vector<std::string>(journal.begin() + split, journal.end()),
        split);
    const QueueView whole = replay_queue(journal);
    ASSERT_EQ(view.campaigns.size(), whole.campaigns.size()) << split;
    EXPECT_EQ(view.campaigns[0].phase, CampaignPhase::kComplete) << split;
    EXPECT_EQ(view.campaigns[1].phase, CampaignPhase::kLeased) << split;
    EXPECT_EQ(view.next_campaign_id, whole.next_campaign_id) << split;
    EXPECT_EQ(view.next_lease_id, whole.next_lease_id) << split;
  }
  // Record 1 of the suffix is record 8 of the journal.
  QueueView view = replay_queue(journal);
  try {
    fold_queue_records(view, {"renew 2 2 7000", "lease 2 3 8000"}, 7);
    FAIL() << "expected the fold to reject leasing a leased campaign";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("record 8 "), std::string::npos)
        << error.what();
  }
}

// --- service ---------------------------------------------------------------

class QueueServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("divlib_queue_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    disarm_io_failpoint();
    fs::remove_all(dir_);
  }

  QueueOptions options(std::size_t max_depth = 256,
                       std::int64_t lease_ms = 10'000) {
    QueueOptions opts;
    opts.directory = dir_.string();
    opts.max_depth = max_depth;
    opts.lease_ms = lease_ms;
    opts.now_ms = [this] { return now_ms_; };
    return opts;
  }

  fs::path dir_;
  std::int64_t now_ms_ = 1'000'000;  // fake wall clock, advanced by tests
};

TEST_F(QueueServiceTest, SubmitAssignsIdsAndDedupsLiveConfigs) {
  CampaignQueue queue(options());
  const SubmitOutcome first = queue.submit("--graph=cycle:32 --rounds=50");
  EXPECT_EQ(first.campaign, 1u);
  EXPECT_FALSE(first.duplicate);
  const SubmitOutcome again = queue.submit("--graph=cycle:32 --rounds=50");
  EXPECT_EQ(again.campaign, 1u);
  EXPECT_TRUE(again.duplicate);
  const SubmitOutcome other = queue.submit("--graph=cycle:64 --rounds=50");
  EXPECT_EQ(other.campaign, 2u);
  EXPECT_FALSE(other.duplicate);
  // Once the campaign is terminal the same config is fresh work again.
  const auto leased = queue.lease_next();
  ASSERT_TRUE(leased.has_value());
  queue.finish(leased->id, leased->lease, CampaignPhase::kComplete, "done");
  const SubmitOutcome resubmit = queue.submit("--graph=cycle:32 --rounds=50");
  EXPECT_EQ(resubmit.campaign, 3u);
  EXPECT_FALSE(resubmit.duplicate);
}

TEST_F(QueueServiceTest, RefusesLoudlyAtMaxDepth) {
  CampaignQueue queue(options(/*max_depth=*/2));
  queue.submit("--a=1");
  queue.submit("--a=2");
  EXPECT_THROW(queue.submit("--a=3"), QueueRefusal);
  // Leasing one frees a Queued slot: admission tracks depth, not history.
  ASSERT_TRUE(queue.lease_next().has_value());
  EXPECT_EQ(queue.submit("--a=3").campaign, 3u);
}

TEST_F(QueueServiceTest, ExpiredLeaseIsRequeuedAndStaleHolderRejected) {
  CampaignQueue queue(options(256, /*lease_ms=*/5'000));
  queue.submit("--a=1");
  const auto first = queue.lease_next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->lease, 1u);
  EXPECT_EQ(first->lease_deadline_ms, now_ms_ + 5'000);
  queue.mark_running(first->id, first->lease);
  // The coordinator dies: no renewals.  Before the deadline nothing moves...
  now_ms_ += 4'999;
  EXPECT_EQ(queue.requeue_expired(), 0u);
  EXPECT_FALSE(queue.lease_next().has_value());
  // ...at the deadline the campaign goes back to Queued and is re-leased.
  now_ms_ += 1;
  const auto second = queue.lease_next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, first->id);
  EXPECT_EQ(second->lease, 2u);
  EXPECT_EQ(second->requeues, 1u);
  // The zombie's lease is dead: every holder operation refuses.
  EXPECT_THROW(queue.renew(first->id, first->lease), StaleLease);
  EXPECT_THROW(queue.mark_running(first->id, first->lease), StaleLease);
  EXPECT_THROW(queue.finish(first->id, first->lease, CampaignPhase::kComplete,
                            "zombie verdict"),
               StaleLease);
  // The new holder proceeds normally.
  queue.mark_running(second->id, second->lease);
  queue.finish(second->id, second->lease, CampaignPhase::kComplete, "done");
  EXPECT_EQ(queue.snapshot().view.count(CampaignPhase::kComplete), 1u);
}

TEST_F(QueueServiceTest, RenewPushesTheDeadline) {
  CampaignQueue queue(options(256, /*lease_ms=*/5'000));
  queue.submit("--a=1");
  const auto leased = queue.lease_next();
  ASSERT_TRUE(leased.has_value());
  now_ms_ += 3'000;
  queue.renew(leased->id, leased->lease);  // deadline now 1'009'000
  now_ms_ += 4'000;                        // past the ORIGINAL deadline
  EXPECT_EQ(queue.requeue_expired(), 0u);
  now_ms_ += 2'000;                        // past the renewed deadline
  EXPECT_EQ(queue.requeue_expired(), 1u);
  EXPECT_EQ(queue.snapshot().view.count(CampaignPhase::kQueued), 1u);
}

TEST_F(QueueServiceTest, ReleaseRequeuesForALaterCoordinator) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  const auto leased = queue.lease_next();
  ASSERT_TRUE(leased.has_value());
  queue.mark_running(leased->id, leased->lease);
  queue.release(leased->id, leased->lease, "operator cancel");
  const QueueSnapshot snap = queue.snapshot();
  ASSERT_EQ(snap.view.campaigns.size(), 1u);
  EXPECT_EQ(snap.view.campaigns[0].phase, CampaignPhase::kQueued);
  EXPECT_EQ(snap.view.campaigns[0].note, "operator cancel");
  EXPECT_EQ(snap.view.campaigns[0].requeues, 1u);
}

TEST_F(QueueServiceTest, DrainCancelsQueuedButNotLeasedCampaigns) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  queue.submit("--a=2");
  queue.submit("--a=3");
  ASSERT_TRUE(queue.lease_next().has_value());  // campaign 1 leaves Queued
  EXPECT_EQ(queue.drain("operator drain"), 2u);
  const QueueSnapshot snap = queue.snapshot();
  EXPECT_EQ(snap.view.count(CampaignPhase::kCancelled), 2u);
  EXPECT_EQ(snap.view.count(CampaignPhase::kLeased), 1u);
  EXPECT_EQ(queue.drain("again"), 0u);  // idempotent on an empty queue
}

TEST_F(QueueServiceTest, StateSurvivesReopeningTheDirectory) {
  {
    CampaignQueue queue(options());
    queue.submit("--a=1");
    queue.submit("--a=2");
    const auto leased = queue.lease_next();
    ASSERT_TRUE(leased.has_value());
    queue.finish(leased->id, leased->lease, CampaignPhase::kDegraded,
                 "1 replica quarantined");
  }
  CampaignQueue reopened(options());
  const QueueSnapshot snap = reopened.snapshot();
  ASSERT_EQ(snap.view.campaigns.size(), 2u);
  EXPECT_EQ(snap.view.campaigns[0].phase, CampaignPhase::kDegraded);
  EXPECT_EQ(snap.view.campaigns[0].note, "1 replica quarantined");
  EXPECT_EQ(snap.view.campaigns[1].phase, CampaignPhase::kQueued);
  EXPECT_EQ(snap.view.next_campaign_id, 3u);
  EXPECT_EQ(reopened.submit("--a=3").campaign, 3u);
}

TEST_F(QueueServiceTest, ReopeningATornQueueReportsItUntilAMutationHeals) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  queue.submit("--a=2");
  // Chop into the last frame: a crashed writer's torn tail.
  const std::filesystem::path journal =
      std::filesystem::path(dir_) / "queue.journal";
  std::filesystem::resize_file(journal,
                               std::filesystem::file_size(journal) - 3);
  // Reopening must not heal -- `status` is a read and reports the tear.
  CampaignQueue reopened(options());
  const QueueSnapshot torn_snap = reopened.snapshot();
  EXPECT_TRUE(torn_snap.torn);
  ASSERT_EQ(torn_snap.view.campaigns.size(), 1u);  // intact prefix only
  EXPECT_EQ(torn_snap.view.next_campaign_id, 2u);
  // The first mutation truncates the tail under its exclusive lock.
  EXPECT_EQ(reopened.submit("--a=2").campaign, 2u);
  const QueueSnapshot healed = reopened.snapshot();
  EXPECT_FALSE(healed.torn);
  EXPECT_EQ(healed.view.campaigns.size(), 2u);
}

TEST_F(QueueServiceTest, TornAppendAtEveryOffsetPreservesTheQueue) {
  // Size the frame the torn submit would have produced so the sweep covers
  // every byte of it: u32 len + u32 crc + the encoded record text.
  QueueRecord probe;
  probe.kind = QueueRecord::Kind::kSubmit;
  probe.campaign = 2;
  probe.fingerprint = 0xFFFFFFFFu;
  probe.text = "--graph=cycle:64 --rounds=10";
  const std::size_t frame = 8 + encode_queue_record(probe).size();
  for (std::size_t cut = 0; cut < frame; ++cut) {
    fs::remove_all(dir_);
    CampaignQueue queue(options());
    queue.submit("--graph=cycle:32 --rounds=10");
    arm_io_failpoint("journal", cut);
    EXPECT_THROW(queue.submit("--graph=cycle:64 --rounds=10"),
                 std::runtime_error)
        << "cut " << cut;
    disarm_io_failpoint();
    // The torn decision never happened: replay sees campaign 1 only, and
    // the next mutation truncates the tail and reuses the campaign id.
    const QueueSnapshot snap = queue.snapshot();
    ASSERT_EQ(snap.view.campaigns.size(), 1u) << "cut " << cut;
    EXPECT_EQ(snap.view.next_campaign_id, 2u) << "cut " << cut;
    const SubmitOutcome retry = queue.submit("--graph=cycle:64 --rounds=10");
    EXPECT_EQ(retry.campaign, 2u) << "cut " << cut;
    EXPECT_FALSE(retry.duplicate) << "cut " << cut;
    EXPECT_FALSE(queue.snapshot().torn) << "cut " << cut;
  }
}

TEST_F(QueueServiceTest, RefusesALeaseShorterThanTheMinimum) {
  try {
    CampaignQueue queue(options(256, /*lease_ms=*/149));
    FAIL() << "a 149ms lease was accepted";
  } catch (const std::invalid_argument& refused) {
    EXPECT_NE(std::string(refused.what()).find("at least 150"),
              std::string::npos)
        << refused.what();
  }
  CampaignQueue queue(options(256, /*lease_ms=*/150));
  EXPECT_EQ(queue.options().lease_ms, 150);
}

// --- view cache ------------------------------------------------------------

// Field-by-field equality of two folded views, naming the first difference.
::testing::AssertionResult same_view(const QueueView& got,
                                     const QueueView& want) {
  if (got.next_campaign_id != want.next_campaign_id ||
      got.next_lease_id != want.next_lease_id) {
    return ::testing::AssertionFailure()
           << "next ids " << got.next_campaign_id << "/" << got.next_lease_id
           << ", replay has " << want.next_campaign_id << "/"
           << want.next_lease_id;
  }
  if (got.campaigns.size() != want.campaigns.size()) {
    return ::testing::AssertionFailure()
           << got.campaigns.size() << " campaigns, replay has "
           << want.campaigns.size();
  }
  for (std::size_t i = 0; i < got.campaigns.size(); ++i) {
    const CampaignEntry& a = got.campaigns[i];
    const CampaignEntry& b = want.campaigns[i];
    if (a.id != b.id || a.fingerprint != b.fingerprint ||
        a.config != b.config || a.phase != b.phase || a.lease != b.lease ||
        a.lease_deadline_ms != b.lease_deadline_ms ||
        a.requeues != b.requeues || a.note != b.note) {
      return ::testing::AssertionFailure()
             << "campaign " << a.id << " [" << to_string(a.phase) << ", lease "
             << a.lease << ", config '" << a.config << "', note '" << a.note
             << "'] but replay has " << b.id << " [" << to_string(b.phase)
             << ", lease " << b.lease << ", config '" << b.config
             << "', note '" << b.note << "']";
    }
  }
  return ::testing::AssertionSuccess();
}

// Two CampaignQueue instances on one directory stand in for two processes,
// each with its own view cache, under seeded random interleavings of every
// operation, failpoint-torn appends, one hand-edited journal prefix and one
// illegal record.  After every operation both must agree with a fresh
// replay of the journal on disk, and each operation's outcome must be the
// one that replay predicts.  A third instance operates only now and then
// and is checked only then, so its mutations decide on a view whose cache
// first folds a long suffix the other two appended.
TEST_F(QueueServiceTest, ViewCachesAgreeWithAFreshReplay) {
  enum class Outcome { kOk, kStale, kRefused, kError };
  const auto attempt = [](const auto& op) {
    try {
      op();
      return Outcome::kOk;
    } catch (const StaleLease&) {
      return Outcome::kStale;
    } catch (const QueueRefusal&) {
      return Outcome::kRefused;
    } catch (const std::runtime_error&) {
      return Outcome::kError;
    }
  };
  constexpr std::size_t kMaxDepth = 4;
  constexpr std::int64_t kLeaseMs = 1'000;
  constexpr int kSteps = 160;
  std::size_t torn_appends = 0;
  std::size_t stale = 0;
  std::size_t refused = 0;
  std::size_t duplicates = 0;
  std::size_t expiries = 0;
  std::size_t long_suffixes = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fs::remove_all(dir_);
    Rng rng(seed);
    CampaignQueue a(options(kMaxDepth, kLeaseMs));
    CampaignQueue b(options(kMaxDepth, kLeaseMs));
    CampaignQueue lazy(options(kMaxDepth, kLeaseMs));
    const std::string path = a.journal_path();
    std::uint64_t lazy_seen = 0;  // records when the lazy instance last read
    const auto replayed = [&] {
      if (!fs::exists(path)) {
        return JournalRecovery{};
      }
      return read_journal(path);
    };
    const auto agree = [&](const CampaignQueue& queue, const char* name) {
      const JournalRecovery disk = replayed();
      const QueueSnapshot snap = queue.snapshot();
      EXPECT_EQ(snap.records, disk.records.size()) << name;
      EXPECT_EQ(snap.torn, disk.torn()) << name;
      EXPECT_TRUE(same_view(snap.view, replay_queue(disk.records))) << name;
    };
    std::vector<std::pair<std::uint64_t, std::uint64_t>> leases;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const bool lazy_turn = rng.uniform_below(8) == 0;
      CampaignQueue& queue =
          lazy_turn ? lazy : (rng.uniform_below(2) == 0 ? a : b);
      const JournalRecovery disk_before = replayed();
      const QueueView before = replay_queue(disk_before.records);
      if (lazy_turn && disk_before.records.size() > lazy_seen + 1) {
        ++long_suffixes;
      }
      const std::int64_t now = now_ms_;
      // What a lease holder's operation must do: refuse an unknown
      // campaign, throw StaleLease unless the lease is current, else work.
      const auto holder = [&](std::uint64_t campaign, std::uint64_t lease) {
        const CampaignEntry* entry = before.find(campaign);
        if (entry == nullptr) {
          return Outcome::kError;
        }
        return (entry->phase == CampaignPhase::kLeased ||
                entry->phase == CampaignPhase::kRunning) &&
                       entry->lease == lease
                   ? Outcome::kOk
                   : Outcome::kStale;
      };
      const auto expired = [&](const CampaignEntry& entry) {
        return (entry.phase == CampaignPhase::kLeased ||
                entry.phase == CampaignPhase::kRunning) &&
               entry.lease_deadline_ms <= now;
      };
      std::pair<std::uint64_t, std::uint64_t> pick{0, 0};
      if (!leases.empty()) {
        pick = leases[rng.uniform_below(leases.size())];
      }
      const auto [campaign, lease] = pick;
      const std::uint64_t op = rng.uniform_below(12);
      if (op <= 2) {  // submit, from a small pool so dedup and depth bite
        const std::string config =
            "--c=" + std::to_string(rng.uniform_below(8));
        const CampaignEntry* live = nullptr;
        for (const CampaignEntry& entry : before.campaigns) {
          if (!phase_is_terminal(entry.phase) && entry.config == config) {
            live = &entry;
          }
        }
        SubmitOutcome outcome;
        const Outcome result =
            attempt([&] { outcome = queue.submit(config); });
        if (live != nullptr) {
          ASSERT_EQ(result, Outcome::kOk);
          EXPECT_TRUE(outcome.duplicate);
          EXPECT_EQ(outcome.campaign, live->id);
          ++duplicates;
        } else if (before.count(CampaignPhase::kQueued) >= kMaxDepth) {
          EXPECT_EQ(result, Outcome::kRefused);
          ++refused;
        } else {
          ASSERT_EQ(result, Outcome::kOk);
          EXPECT_FALSE(outcome.duplicate);
          EXPECT_EQ(outcome.campaign, before.next_campaign_id);
        }
      } else if (op <= 4) {  // lease, requeueing expired leases first
        const CampaignEntry* oldest = nullptr;
        for (const CampaignEntry& entry : before.campaigns) {
          if (entry.phase == CampaignPhase::kQueued || expired(entry)) {
            oldest = &entry;
            break;
          }
        }
        std::optional<CampaignEntry> leased;
        ASSERT_EQ(attempt([&] { leased = queue.lease_next(); }),
                  Outcome::kOk);
        ASSERT_EQ(leased.has_value(), oldest != nullptr);
        if (leased) {
          EXPECT_EQ(leased->id, oldest->id);
          EXPECT_EQ(leased->lease, before.next_lease_id);
          leases.emplace_back(leased->id, leased->lease);
        }
      } else if (op == 5) {
        Outcome want = holder(campaign, lease);
        if (want == Outcome::kOk &&
            before.find(campaign)->phase == CampaignPhase::kRunning) {
          want = Outcome::kError;  // already running
        }
        EXPECT_EQ(attempt([&] { queue.mark_running(campaign, lease); }), want);
        stale += want == Outcome::kStale;
      } else if (op == 6) {
        EXPECT_EQ(attempt([&] { queue.renew(campaign, lease); }),
                  holder(campaign, lease));
      } else if (op == 7) {
        const CampaignPhase verdicts[] = {CampaignPhase::kComplete,
                                          CampaignPhase::kDegraded,
                                          CampaignPhase::kFailed};
        const CampaignPhase verdict = verdicts[rng.uniform_below(3)];
        EXPECT_EQ(attempt([&] {
                    queue.finish(campaign, lease, verdict,
                                 "verdict at step " + std::to_string(step));
                  }),
                  holder(campaign, lease));
      } else if (op == 8) {
        EXPECT_EQ(attempt([&] { queue.release(campaign, lease, "released"); }),
                  holder(campaign, lease));
      } else if (op == 9) {  // the clock moves; expired leases go back
        now_ms_ += static_cast<std::int64_t>(rng.uniform_below(700));
        const auto want = static_cast<std::size_t>(std::count_if(
            before.campaigns.begin(), before.campaigns.end(),
            [&](const CampaignEntry& entry) {
              return (entry.phase == CampaignPhase::kLeased ||
                      entry.phase == CampaignPhase::kRunning) &&
                     entry.lease_deadline_ms <= now_ms_;
            }));
        std::size_t requeued = 0;
        ASSERT_EQ(attempt([&] { requeued = queue.requeue_expired(); }),
                  Outcome::kOk);
        EXPECT_EQ(requeued, want);
        expiries += requeued;
      } else if (op == 10) {
        if (rng.uniform_below(4) == 0) {
          std::size_t cancelled = 0;
          ASSERT_EQ(attempt([&] { cancelled = queue.drain("drained"); }),
                    Outcome::kOk);
          EXPECT_EQ(cancelled, before.count(CampaignPhase::kQueued));
        }
      } else {  // an append torn inside its frame, as a crash leaves it
        arm_io_failpoint("journal", rng.uniform_below(16));
        const Outcome result = attempt([&] {
          queue.submit("--torn=" + std::to_string(step));
        });
        disarm_io_failpoint();
        if (before.count(CampaignPhase::kQueued) < kMaxDepth) {
          EXPECT_EQ(result, Outcome::kError);
          ++torn_appends;
        }
      }

      if (step == kSteps / 2) {
        // Hand-edit the journal's first record in place: same length, so
        // every frame after it stays where it was, but campaign 1 now has
        // another config (with its fingerprint recomputed, so the journal
        // stays legal).  Both caches hold the old bytes.
        JournalRecovery disk = recover_journal(path);
        ASSERT_FALSE(disk.records.empty());
        QueueRecord first = decode_queue_record(disk.records[0]);
        first.text[2] = 'e';  // "--c=N" -> "--e=N"
        first.fingerprint = crc32_of(first.text);
        disk.records[0] = encode_queue_record(first);
        fs::remove(path);
        {
          JournalWriter writer(path);
          for (const std::string& record : disk.records) {
            writer.append(record);
          }
          writer.close();
        }
        ASSERT_EQ(fs::file_size(path), disk.valid_bytes);
      }
      if (step == kSteps / 2 + 10) {
        // An illegal record appended behind the caches' backs: a snapshot,
        // a mutation, and the lazy instance's mutation that folds it at the
        // end of a longer suffix all refuse it naming its journal-wide
        // index, and all work again once it is gone.
        const JournalRecovery disk = recover_journal(path);
        {
          JournalWriter writer(path);
          writer.append("running 999999 1");
          writer.close();
        }
        const std::string index =
            "record " + std::to_string(disk.records.size()) + " ";
        const auto refuses = [&](const char* what, const auto& op) {
          try {
            op();
            ADD_FAILURE() << what << " folded the illegal record";
          } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find(index), std::string::npos)
                << what << ": " << error.what();
          }
        };
        refuses("a snapshot", [&] { (void)a.snapshot(); });
        refuses("a submit", [&] { (void)b.submit("--after-illegal"); });
        refuses("the lazy lease", [&] { (void)lazy.lease_next(); });
        fs::resize_file(path, disk.valid_bytes);
      }

      agree(a, "a");
      agree(b, "b");
      if (lazy_turn) {
        agree(lazy, "lazy");
        lazy_seen = replayed().records.size();
      }
      if (::testing::Test::HasFailure()) {
        return;  // one seed's first divergence is enough to debug from
      }
    }
  }
  // Coverage guard: every branch the caches must survive was reached.
  EXPECT_GT(torn_appends, 0u);
  EXPECT_GT(stale, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(expiries, 0u);
  EXPECT_GT(long_suffixes, 0u);
}

#ifdef __linux__
// The inode flags of `path`, or -1 where the file system has none.
int inode_flags(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  int flags = -1;
  if (fd >= 0 && ::ioctl(fd, FS_IOC_GETFLAGS, &flags) != 0) {
    flags = -1;
  }
  if (fd >= 0) {
    ::close(fd);
  }
  return flags;
}

TEST_F(QueueServiceTest, CampaignsDirectoryIsATopDirectory) {
  // Probe whether this file system keeps the flag at all (ext2/3/4 do).
  const fs::path probe = fs::path(dir_.string() + "_probe");
  fs::create_directories(probe);
  int flags = inode_flags(probe);
  bool supported = false;
  if (flags >= 0) {
    flags |= FS_TOPDIR_FL;
    const int fd = ::open(probe.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    supported = fd >= 0 && ::ioctl(fd, FS_IOC_SETFLAGS, &flags) == 0 &&
                (inode_flags(probe) & FS_TOPDIR_FL) != 0;
    if (fd >= 0) {
      ::close(fd);
    }
  }
  fs::remove_all(probe);
  if (!supported) {
    GTEST_SKIP() << "the temp file system keeps no top-directory flag";
  }

  CampaignQueue queue(options());
  EXPECT_NE(inode_flags(dir_ / "campaigns") & FS_TOPDIR_FL, 0);
}
#endif

// --- coordinator -----------------------------------------------------------

class QueueCoordinatorTest : public QueueServiceTest {};

TEST_F(QueueCoordinatorTest, DrivesQueuedCampaignsToCompletion) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  queue.submit("--a=2");
  std::vector<std::string> checkpoint_dirs;
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  const CoordinatorReport report = run_coordinator(
      queue,
      [&](const CampaignEntry& campaign, const std::string& checkpoint_dir) {
        checkpoint_dirs.push_back(checkpoint_dir);
        EXPECT_EQ(campaign.phase, CampaignPhase::kLeased);
        return CampaignPhase::kComplete;
      },
      copts);
  EXPECT_EQ(report.leased, 2u);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_FALSE(report.cancelled);
  ASSERT_EQ(checkpoint_dirs.size(), 2u);
  EXPECT_EQ(checkpoint_dirs[0], queue.campaign_directory(1));
  EXPECT_EQ(checkpoint_dirs[1], queue.campaign_directory(2));
  EXPECT_EQ(queue.snapshot().view.count(CampaignPhase::kComplete), 2u);
  EXPECT_FALSE(queue.snapshot().view.has_live_work());
}

TEST_F(QueueCoordinatorTest, RunnerExceptionBecomesAFailedVerdict) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  const CoordinatorReport report = run_coordinator(
      queue,
      [](const CampaignEntry&, const std::string&) -> CampaignPhase {
        throw std::runtime_error("engine exploded");
      },
      copts);
  EXPECT_EQ(report.failed, 1u);
  const QueueSnapshot snap = queue.snapshot();
  ASSERT_EQ(snap.view.campaigns.size(), 1u);
  EXPECT_EQ(snap.view.campaigns[0].phase, CampaignPhase::kFailed);
  EXPECT_NE(snap.view.campaigns[0].note.find("engine exploded"),
            std::string::npos);
}

TEST_F(QueueCoordinatorTest, CancelledVerdictReleasesAndStopsTheLoop) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  queue.submit("--a=2");
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  const CoordinatorReport report = run_coordinator(
      queue,
      [](const CampaignEntry&, const std::string&) {
        return CampaignPhase::kCancelled;
      },
      copts);
  // Released, not finished -- and the loop must NOT spin re-leasing the
  // campaign it just put back.
  EXPECT_EQ(report.leased, 1u);
  EXPECT_EQ(report.released, 1u);
  EXPECT_TRUE(report.cancelled);
  const QueueSnapshot snap = queue.snapshot();
  EXPECT_EQ(snap.view.count(CampaignPhase::kQueued), 2u);
}

TEST_F(QueueCoordinatorTest, FiredTokenStopsBeforeLeasing) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  CancelToken token;
  token.request(CancelReason::kUser);
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  copts.cancel = &token;
  const CoordinatorReport report = run_coordinator(
      queue,
      [](const CampaignEntry&, const std::string&) {
        return CampaignPhase::kComplete;
      },
      copts);
  EXPECT_EQ(report.leased, 0u);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(queue.snapshot().view.count(CampaignPhase::kQueued), 1u);
}

TEST_F(QueueCoordinatorTest, MaxCampaignsBoundsTheDispatch) {
  CampaignQueue queue(options());
  queue.submit("--a=1");
  queue.submit("--a=2");
  queue.submit("--a=3");
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  copts.max_campaigns = 1;
  const CoordinatorReport report = run_coordinator(
      queue,
      [](const CampaignEntry&, const std::string&) {
        return CampaignPhase::kComplete;
      },
      copts);
  EXPECT_EQ(report.leased, 1u);
  EXPECT_EQ(queue.snapshot().view.count(CampaignPhase::kQueued), 2u);
}

TEST_F(QueueCoordinatorTest, PicksUpACrashedCoordinatorsCampaign) {
  CampaignQueue queue(options(256, /*lease_ms=*/5'000));
  queue.submit("--a=1");
  // "Coordinator one" leases and dies without finishing or renewing.
  const auto abandoned = queue.lease_next();
  ASSERT_TRUE(abandoned.has_value());
  now_ms_ += 5'001;
  // Coordinator two requeues the expired lease and drives it to a verdict.
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  const CoordinatorReport report = run_coordinator(
      queue,
      [&](const CampaignEntry& campaign, const std::string&) {
        EXPECT_EQ(campaign.requeues, 1u);  // the lost lease is on the record
        return CampaignPhase::kComplete;
      },
      copts);
  EXPECT_EQ(report.leased, 1u);
  EXPECT_EQ(report.completed, 1u);
  const QueueSnapshot snap = queue.snapshot();
  EXPECT_EQ(snap.view.count(CampaignPhase::kComplete), 1u);
  EXPECT_EQ(snap.view.next_lease_id, 3u);  // the dead lease id is burned
}

// The lease heartbeat stops the moment the runner returns, so the verdict
// is journaled without waiting out a renewal timer.  Each runner works 2ms
// first, so the heartbeat thread is already waiting when it is stopped.
TEST_F(QueueCoordinatorTest, VerdictFollowsTheRunnerWithoutWaitingOnATimer) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kCampaigns = 10;
  CampaignQueue queue(options());
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    queue.submit("--a=" + std::to_string(i));
  }
  Clock::time_point returned;
  std::vector<double> gaps_ms;
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  copts.on_note = [&](const std::string& line) {
    if (line.starts_with("campaign ") && line.ends_with(" complete")) {
      gaps_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - returned)
              .count());
    }
  };
  const CoordinatorReport report = run_coordinator(
      queue,
      [&](const CampaignEntry&, const std::string&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        returned = Clock::now();
        return CampaignPhase::kComplete;
      },
      copts);
  EXPECT_EQ(report.completed, kCampaigns);
  ASSERT_EQ(gaps_ms.size(), kCampaigns);
  std::nth_element(gaps_ms.begin(), gaps_ms.begin() + kCampaigns / 2,
                   gaps_ms.end());
  EXPECT_LT(gaps_ms[kCampaigns / 2], 10.0);
}

// A running campaign's lease is renewed every lease_ms / 3 for as long as
// its runner works, and the renewals do not disturb the verdict.
TEST_F(QueueCoordinatorTest, RunningCampaignsLeaseIsRenewed) {
  CampaignQueue queue(options(256, /*lease_ms=*/150));
  queue.submit("--a=1");
  CoordinatorOptions copts;
  copts.wait_for_leases = false;
  const CoordinatorReport report = run_coordinator(
      queue,
      [](const CampaignEntry&, const std::string&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        return CampaignPhase::kComplete;
      },
      copts);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.lost, 0u);
  std::size_t renewals = 0;
  for (const std::string& record :
       read_journal(queue.journal_path()).records) {
    if (decode_queue_record(record).kind == QueueRecord::Kind::kRenew) {
      ++renewals;
    }
  }
  EXPECT_GE(renewals, 5u);
  EXPECT_EQ(queue.snapshot().view.count(CampaignPhase::kComplete), 1u);
}

}  // namespace
}  // namespace divlib
