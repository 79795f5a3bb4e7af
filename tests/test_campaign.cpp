#include "engine/campaign.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "io/atomic_file.hpp"
#include "io/journal.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

// A task whose payload depends on the replica's RNG stream: any seeding
// mistake (batch-index instead of true-id seeds) shows up as a payload
// mismatch, not just a count mismatch.
std::optional<std::string> rng_payload_task(std::size_t replica, Rng& rng) {
  return "r" + std::to_string(replica) + ":" + std::to_string(rng.next());
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("divlib_campaign_test_" +
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
    opts.meta = "test-campaign 1\nk=3 seed=42\n";
    opts.mc.master_seed = 42;
    opts.mc.num_threads = 2;
    return opts;
  }

  std::string journal_path() const {
    return (dir_ / "results.journal").string();
  }

  fs::path dir_;
};

TEST_F(CampaignTest, FreshCampaignJournalsEveryReplica) {
  const CampaignResult result = run_campaign(8, rng_payload_task, options());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.ran, 8u);
  EXPECT_EQ(result.resumed, 0u);
  EXPECT_FALSE(result.cancelled);
  ASSERT_EQ(result.payloads.size(), 8u);
  for (std::size_t r = 0; r < 8; ++r) {
    ASSERT_TRUE(result.payloads[r].has_value()) << "replica " << r;
  }
  const JournalRecovery recovery = read_journal(journal_path());
  EXPECT_FALSE(recovery.torn());
  EXPECT_EQ(recovery.records.size(), 8u);
  // The meta fingerprint was persisted alongside.
  EXPECT_EQ(read_file((dir_ / "campaign.meta").string()), options().meta);
}

TEST_F(CampaignTest, ResumeOfFinishedCampaignRunsNothing) {
  const CampaignResult first = run_campaign(8, rng_payload_task, options());
  const CampaignResult second =
      run_campaign(8, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.resumed, 8u);
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.payloads, first.payloads);
}

TEST_F(CampaignTest, PartialResumeMergesBitIdenticallyWithUninterruptedRun) {
  // Baseline: an uninterrupted campaign in a sibling directory.
  const fs::path baseline_dir = dir_.string() + "_baseline";
  fs::remove_all(baseline_dir);
  CampaignOptions baseline_opts = options();
  baseline_opts.directory = baseline_dir.string();
  const CampaignResult baseline =
      run_campaign(10, rng_payload_task, baseline_opts);
  ASSERT_TRUE(baseline.complete());

  // Simulate a crash that persisted only the even replicas: hand-write the
  // meta and a journal containing their records.
  fs::create_directories(dir_);
  atomic_write_file((dir_ / "campaign.meta").string(), options().meta);
  {
    JournalWriter writer(journal_path());
    for (std::size_t r = 0; r < 10; r += 2) {
      writer.append(encode_campaign_record(r, *baseline.payloads[r]));
    }
  }

  const CampaignResult resumed =
      run_campaign(10, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(resumed.ran, 5u);  // only the odd replicas re-ran
  // The merged payloads are bit-identical to the uninterrupted run, which
  // requires the re-run replicas to be seeded from their TRUE ids.
  EXPECT_EQ(resumed.payloads, baseline.payloads);
  fs::remove_all(baseline_dir);
}

TEST_F(CampaignTest, TornJournalTailIsRecoveredOnResume) {
  const CampaignResult first = run_campaign(6, rng_payload_task, options());
  ASSERT_TRUE(first.complete());
  // Tear the last record mid-frame, as a crash between write() calls would.
  const auto size = fs::file_size(journal_path());
  fs::resize_file(journal_path(), size - 3);

  const CampaignResult resumed =
      run_campaign(6, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 5u);  // the torn record was dropped...
  EXPECT_EQ(resumed.ran, 1u);      // ...and its replica re-ran
  EXPECT_EQ(resumed.payloads, first.payloads);
  EXPECT_FALSE(read_journal(journal_path()).torn());
}

TEST_F(CampaignTest, ExistingJournalWithoutResumeFlagThrows) {
  run_campaign(2, rng_payload_task, options());
  EXPECT_THROW(run_campaign(2, rng_payload_task, options(/*resume=*/false)),
               std::runtime_error);
}

TEST_F(CampaignTest, MetaMismatchOnResumeThrows) {
  run_campaign(2, rng_payload_task, options());
  CampaignOptions changed = options(/*resume=*/true);
  changed.meta = "test-campaign 1\nk=4 seed=42\n";
  EXPECT_THROW(run_campaign(2, rng_payload_task, changed), std::runtime_error);
}

TEST_F(CampaignTest, PresetCancelJournalsNothingAndResumeFinishes) {
  CancelToken token;
  token.request();
  CampaignOptions cancelled_opts = options();
  cancelled_opts.mc.cancel = &token;
  const CampaignResult cancelled =
      run_campaign(5, rng_payload_task, cancelled_opts);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.complete());
  EXPECT_EQ(cancelled.ran, 0u);
  EXPECT_EQ(read_journal(journal_path()).records.size(), 0u);

  const CampaignResult resumed =
      run_campaign(5, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.ran, 5u);
}

// Regression for the fires-after-last-claim race: a token that fires while
// the FINAL replica is in flight leaves the batch complete.  The driver
// still reports that the token fired (report.cancelled), but the campaign
// is finished -- there is nothing to resume -- so CampaignResult.cancelled
// (documented as "resume to finish the rest") must be false.  The old
// inference (attempted < replicas) combined with a campaign-side workaround
// misclassified this case.
TEST_F(CampaignTest, CancelDuringFinalReplicaLeavesCampaignComplete) {
  CancelToken token;
  CampaignOptions opts = options();
  opts.mc.cancel = &token;
  opts.mc.num_threads = 1;  // sequential claims: replica 4 is the last
  const auto task = [&](std::size_t replica,
                        Rng& rng) -> std::optional<std::string> {
    if (replica == 4) {
      token.request();  // fires after the last slot was claimed
    }
    return rng_payload_task(replica, rng);
  };
  const CampaignResult result = run_campaign(5, task, opts);
  EXPECT_TRUE(result.report.cancelled);  // the token DID fire
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.ran, 5u);
  EXPECT_FALSE(result.cancelled);  // nothing left to resume
  EXPECT_EQ(read_journal(journal_path()).records.size(), 5u);
}

// The campaign beats an attached heartbeat at every journal flush, so the
// telemetry stream is always at least as fresh as the last durable replica.
TEST_F(CampaignTest, HeartbeatBeatsOnEveryJournalFlush) {
  BatchProgress progress;
  std::vector<HeartbeatRecord> records;
  std::mutex records_mutex;
  Heartbeat heartbeat(
      progress,
      [&](const HeartbeatRecord& record) {
        const std::lock_guard<std::mutex> lock(records_mutex);
        records.push_back(record);
      },
      std::chrono::milliseconds(0));  // manual beats only
  CampaignOptions opts = options();
  opts.flush_every = 2;
  opts.heartbeat = &heartbeat;
  opts.mc.progress = &progress;
  const CampaignResult result = run_campaign(4, rng_payload_task, opts);
  heartbeat.stop();
  ASSERT_TRUE(result.complete());
  // 4 records with flush_every=2: in-loop flushes after records 2 and 4,
  // plus the unconditional end-of-batch flush, then stop()'s final.
  std::size_t flush_beats = 0;
  for (const HeartbeatRecord& record : records) {
    if (record.reason == "flush") {
      ++flush_beats;
    }
  }
  EXPECT_EQ(flush_beats, 3u);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().reason, "final");
  EXPECT_EQ(records.back().total, 4u);
  EXPECT_EQ(records.back().done, 4u);
  // run_campaign seeded the progress totals before any replica ran.
  EXPECT_EQ(progress.total.load(), 4u);
  EXPECT_EQ(progress.completed.load(), 4u);
}

TEST_F(CampaignTest, NulloptTaskResultsAreNotJournaled) {
  // A task that declines replica 3 (the cancelled-drain convention).
  const auto task = [](std::size_t replica,
                       Rng& rng) -> std::optional<std::string> {
    if (replica == 3) {
      return std::nullopt;
    }
    return rng_payload_task(replica, rng);
  };
  const CampaignResult result = run_campaign(5, task, options());
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.ran, 4u);
  EXPECT_FALSE(result.payloads[3].has_value());
  EXPECT_EQ(read_journal(journal_path()).records.size(), 4u);

  const CampaignResult resumed =
      run_campaign(5, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 4u);
  EXPECT_EQ(resumed.ran, 1u);
}

TEST_F(CampaignTest, PersistentlyFailingReplicaIsReportedNotJournaled) {
  const auto task = [](std::size_t replica,
                       Rng& rng) -> std::optional<std::string> {
    if (replica == 1) {
      throw std::runtime_error("injected fault");
    }
    return rng_payload_task(replica, rng);
  };
  const CampaignResult result = run_campaign(4, task, options());
  EXPECT_FALSE(result.complete());
  EXPECT_FALSE(result.report.ok());
  ASSERT_EQ(result.report.errors.size(), 1u);
  EXPECT_EQ(result.report.errors[0].replica, 1u);
  EXPECT_FALSE(result.payloads[1].has_value());
  EXPECT_EQ(read_journal(journal_path()).records.size(), 3u);
}

TEST(CampaignRecord, EncodeDecodeRoundTrips) {
  const std::string record = encode_campaign_record(42, "completed 17 3 -");
  EXPECT_EQ(record, "42 completed 17 3 -");
  const auto [replica, payload] = decode_campaign_record(record);
  EXPECT_EQ(replica, 42u);
  EXPECT_EQ(payload, "completed 17 3 -");
  // Payloads may themselves contain spaces and be empty.
  EXPECT_EQ(decode_campaign_record(encode_campaign_record(0, "")).second, "");
}

TEST(CampaignRecord, MalformedRecordsThrow) {
  EXPECT_THROW(decode_campaign_record(""), std::invalid_argument);
  EXPECT_THROW(decode_campaign_record("notanumber x"), std::invalid_argument);
  EXPECT_THROW(decode_campaign_record("12"), std::invalid_argument);
}

}  // namespace
}  // namespace divlib
