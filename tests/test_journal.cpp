#include "io/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "io/atomic_file.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("divlib_journal_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "test.journal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string raw_bytes() const { return read_file(path_); }
  void write_raw(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(JournalTest, RoundTripsRecordsInOrder) {
  {
    JournalWriter writer(path_);
    writer.append("first");
    writer.append("");  // empty payloads are legal
    writer.append(std::string("bin\0ary\xff", 8));
    writer.flush();
    EXPECT_EQ(writer.records_written(), 3u);
  }
  const JournalRecovery recovery = read_journal(path_);
  EXPECT_FALSE(recovery.torn());
  ASSERT_EQ(recovery.records.size(), 3u);
  EXPECT_EQ(recovery.records[0], "first");
  EXPECT_EQ(recovery.records[1], "");
  EXPECT_EQ(recovery.records[2], std::string("bin\0ary\xff", 8));
}

TEST_F(JournalTest, ReopeningAppendsAfterExistingRecords) {
  { JournalWriter(path_).append("one"); }
  { JournalWriter(path_).append("two"); }
  const JournalRecovery recovery = read_journal(path_);
  ASSERT_EQ(recovery.records.size(), 2u);
  EXPECT_EQ(recovery.records[0], "one");
  EXPECT_EQ(recovery.records[1], "two");
}

TEST_F(JournalTest, TornTailRecoversValidPrefix) {
  {
    JournalWriter writer(path_);
    writer.append("alpha");
    writer.append("beta");
    writer.append("gamma");
  }
  const std::string intact = raw_bytes();
  // Chop the final record mid-payload: a crash between write() calls.
  for (std::size_t cut = 1; cut < 13; ++cut) {
    write_raw(intact.substr(0, intact.size() - cut));
    const JournalRecovery recovery = read_journal(path_);
    EXPECT_TRUE(recovery.torn()) << "cut " << cut;
    ASSERT_EQ(recovery.records.size(), 2u) << "cut " << cut;
    EXPECT_EQ(recovery.records[0], "alpha");
    EXPECT_EQ(recovery.records[1], "beta");
  }
}

TEST_F(JournalTest, CorruptTailRecoversValidPrefix) {
  {
    JournalWriter writer(path_);
    writer.append("alpha");
    writer.append("beta");
  }
  std::string bytes = raw_bytes();
  bytes[bytes.size() - 2] ^= 0x40;  // flip a bit inside "beta"'s payload
  write_raw(bytes);
  const JournalRecovery recovery = read_journal(path_);
  EXPECT_TRUE(recovery.torn());
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0], "alpha");
}

TEST_F(JournalTest, RecoverTruncatesAndAppendContinues) {
  {
    JournalWriter writer(path_);
    writer.append("alpha");
    writer.append("beta");
  }
  const std::string intact = raw_bytes();
  write_raw(intact.substr(0, intact.size() - 3));  // torn "beta"
  const JournalRecovery recovery = recover_journal(path_);
  EXPECT_EQ(recovery.valid_bytes, recovery.total_bytes);  // truncated in place
  ASSERT_EQ(recovery.records.size(), 1u);
  { JournalWriter(path_).append("beta2"); }
  const JournalRecovery reread = read_journal(path_);
  EXPECT_FALSE(reread.torn());
  ASSERT_EQ(reread.records.size(), 2u);
  EXPECT_EQ(reread.records[0], "alpha");
  EXPECT_EQ(reread.records[1], "beta2");
}

TEST_F(JournalTest, TornMagicRecoversAsEmpty) {
  write_raw("DIVJ");  // crash while writing the magic itself
  const JournalRecovery recovery = read_journal(path_);
  EXPECT_TRUE(recovery.torn());
  EXPECT_TRUE(recovery.records.empty());
  EXPECT_EQ(recovery.valid_bytes, 0u);
  recover_journal(path_);
  { JournalWriter(path_).append("fresh"); }
  // After truncation to zero the writer re-creates the magic.
  const JournalRecovery reread = read_journal(path_);
  ASSERT_EQ(reread.records.size(), 1u);
  EXPECT_EQ(reread.records[0], "fresh");
}

TEST_F(JournalTest, ForeignFileIsRejectedNotTruncated) {
  write_raw("not a journal at all, but longer than eight bytes");
  EXPECT_THROW(read_journal(path_), std::runtime_error);
  EXPECT_THROW(recover_journal(path_), std::runtime_error);
  // The foreign file must be left untouched.
  EXPECT_EQ(raw_bytes(), "not a journal at all, but longer than eight bytes");
}

TEST_F(JournalTest, MissingFileThrows) {
  EXPECT_THROW(read_journal((dir_ / "absent.journal").string()),
               std::runtime_error);
}

// The group commit under contention: every thread appends and flushes in
// a loop, so leaders and followers interleave with appends that land
// during an fsync.  Every record comes back exactly once, whole.
TEST_F(JournalTest, ConcurrentAppendsAndFlushesKeepEveryRecord) {
  constexpr int kThreads = 4;
  constexpr int kRecords = 200;
  const auto record_of = [](int t, int i) {
    std::string record = "t";
    record += std::to_string(t);
    record += '-';
    record += std::to_string(i);
    return record;
  };
  std::atomic<int> led{0};
  {
    JournalWriter writer(path_);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, &led, &record_of, t] {
        for (int i = 0; i < kRecords; ++i) {
          writer.append(record_of(t, i));
          led.fetch_add(writer.flush() ? 1 : 0);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(writer.records_written(),
              static_cast<std::uint64_t>(kThreads * kRecords));
    EXPECT_FALSE(writer.flush());  // nothing appended since the last fsync
    writer.close();
  }
  EXPECT_GE(led.load(), 1);
  EXPECT_LE(led.load(), kThreads * kRecords);
  const JournalRecovery recovery = read_journal(path_);
  EXPECT_FALSE(recovery.torn());
  std::vector<std::string> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRecords; ++i) {
      expected.push_back(record_of(t, i));
    }
  }
  std::vector<std::string> got = recovery.records;
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

// publish() is the write-through without the fsync: a reader sees the
// record at once, while the writer is still open.
TEST_F(JournalTest, PublishMakesAppendsVisibleBeforeAnyFlush) {
  JournalWriter writer(path_);
  writer.append("seen");
  writer.publish();
  const JournalRecovery recovery = read_journal(path_);
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0], "seen");
  EXPECT_TRUE(writer.flush());  // publish() made nothing durable
}

// A write-through journal never leads an fsync: flush() only publishes, so
// every record is visible at once and kept after the writer closes.
TEST_F(JournalTest, WriteThroughFlushPublishesWithoutAnFsync) {
  {
    JournalWriter writer(path_, JournalSync::kWriteThrough);
    writer.append("one");
    EXPECT_FALSE(writer.flush());
    ASSERT_EQ(read_journal(path_).records.size(), 1u);
    writer.append("two");
    writer.close();
  }
  { JournalWriter(path_, JournalSync::kWriteThrough).append("three"); }
  const JournalRecovery recovery = read_journal(path_);
  EXPECT_FALSE(recovery.torn());
  EXPECT_EQ(recovery.records,
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST(AtomicFile, WriteIsObservedWholeAndOverwrites) {
  const fs::path dir =
      fs::temp_directory_path() / "divlib_atomic_file_test";
  fs::create_directories(dir);
  const std::string path = (dir / "target.txt").string();
  atomic_write_file(path, "first contents");
  EXPECT_EQ(read_file(path), "first contents");
  atomic_write_file(path, "second, longer contents entirely");
  EXPECT_EQ(read_file(path), "second, longer contents entirely");
  // No temporary may linger after a successful write.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(AtomicFile, FailureLeavesDestinationUntouched) {
  const fs::path dir =
      fs::temp_directory_path() / "divlib_atomic_file_fail_test";
  fs::create_directories(dir);
  const std::string path = (dir / "target.txt").string();
  atomic_write_file(path, "precious");
  // Writing under a path whose parent is a *file* cannot create the tmp.
  EXPECT_THROW(atomic_write_file(path + "/child", "x"), std::runtime_error);
  EXPECT_EQ(read_file(path), "precious");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace divlib
