// Crash-point injection coverage for the io layer (io/failpoint.*).
//
// These tests sweep the failpoint across EVERY byte offset of a journal
// frame, an atomic-file payload, and a wire frame, and assert the layer's
// durability contract at each cut: the journal recovers its longest valid
// prefix, atomic_write_file leaves the destination untouched, and a torn
// wire frame is detected by the reader instead of being misparsed.
#include "io/failpoint.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "io/atomic_file.hpp"
#include "io/journal.hpp"
#include "io/wire.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

class FailpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("divlib_failpoint_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    disarm_io_failpoint();  // never leak an armed site into the next test
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

using IoFailpointTest = FailpointFixture;

TEST_F(IoFailpointTest, UnarmedAdmitsEverything) {
  disarm_io_failpoint();
  EXPECT_FALSE(io_failpoint_armed("journal"));
  EXPECT_EQ(io_failpoint_admit("journal", 1000u), 1000u);
}

TEST_F(IoFailpointTest, ArmedSiteConsumesItsBudgetThenRefuses) {
  arm_io_failpoint("journal", 10);
  EXPECT_TRUE(io_failpoint_armed("journal"));
  EXPECT_FALSE(io_failpoint_armed("wire"));  // other sites unaffected
  EXPECT_EQ(io_failpoint_admit("wire", 500u), 500u);
  EXPECT_EQ(io_failpoint_admit("journal", 6u), 6u);   // within budget
  EXPECT_EQ(io_failpoint_admit("journal", 6u), 4u);   // budget exhausted here
  EXPECT_EQ(io_failpoint_admit("journal", 6u), 0u);   // dead device stays dead
  disarm_io_failpoint();
  EXPECT_EQ(io_failpoint_admit("journal", 6u), 6u);
}

TEST_F(IoFailpointTest, RearmingReplacesTheSite) {
  arm_io_failpoint("journal", 5);
  arm_io_failpoint("atomic_file", 7);
  EXPECT_FALSE(io_failpoint_armed("journal"));
  EXPECT_TRUE(io_failpoint_armed("atomic_file"));
  EXPECT_EQ(io_failpoint_admit("atomic_file", 100u), 7u);
}

// --- journal ---------------------------------------------------------------

using JournalCrashPointTest = FailpointFixture;

TEST_F(JournalCrashPointTest, TornAppendAtEveryOffsetRecoversThePrefix) {
  const std::string payload = "replica 7 done";
  const std::size_t frame = 8 + payload.size();  // u32 len + u32 crc + bytes
  for (std::size_t cut = 0; cut < frame; ++cut) {
    const std::string journal = path("cut" + std::to_string(cut) + ".journal");
    {
      JournalWriter writer(journal);
      writer.append("intact record");
      writer.flush();
      arm_io_failpoint("journal", cut);
      EXPECT_THROW(writer.append(payload), std::runtime_error) << cut;
      disarm_io_failpoint();
    }
    // The torn frame is the expected crash artifact: recovery keeps the
    // intact record, truncates the tail, and appends continue cleanly.
    const JournalRecovery recovery = recover_journal(journal);
    ASSERT_EQ(recovery.records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(recovery.records[0], "intact record");
    EXPECT_EQ(recovery.valid_bytes, recovery.total_bytes);
    JournalWriter writer(journal);
    writer.append(payload);
    writer.flush();
    const JournalRecovery reread = read_journal(journal);
    ASSERT_EQ(reread.records.size(), 2u) << "cut " << cut;
    EXPECT_EQ(reread.records[1], payload);
  }
}

TEST_F(JournalCrashPointTest, TornMagicAtEveryOffsetRecoversAsEmpty) {
  for (std::size_t cut = 0; cut < 8; ++cut) {
    const std::string journal =
        path("magic" + std::to_string(cut) + ".journal");
    arm_io_failpoint("journal", cut);
    EXPECT_THROW(JournalWriter writer(journal), std::runtime_error) << cut;
    disarm_io_failpoint();
    const JournalRecovery recovery = recover_journal(journal);
    EXPECT_TRUE(recovery.records.empty()) << cut;
    EXPECT_EQ(recovery.valid_bytes, 0u) << cut;
    // A fresh writer re-creates the magic over the truncated file.
    {
      JournalWriter writer(journal);
      writer.append("fresh");
    }
    EXPECT_EQ(read_journal(journal).records.size(), 1u) << cut;
  }
}

TEST_F(JournalCrashPointTest, CloseSurfacesWhatTheDestructorCannot) {
  const std::string journal = path("close.journal");
  JournalWriter writer(journal);
  writer.append("one");
  writer.close();
  EXPECT_NO_THROW(writer.close());  // idempotent
  EXPECT_THROW(writer.append("two"), std::runtime_error);
  EXPECT_THROW(writer.flush(), std::runtime_error);
  ASSERT_EQ(read_journal(journal).records.size(), 1u);
}

// --- atomic_file -----------------------------------------------------------

using AtomicFileCrashPointTest = FailpointFixture;

TEST_F(AtomicFileCrashPointTest, TornWriteAtEveryOffsetLeavesDestination) {
  const std::string target = path("target.txt");
  atomic_write_file(target, "precious original");
  const std::string replacement = "replacement contents, longer than before";
  for (std::size_t cut = 0; cut < replacement.size(); ++cut) {
    arm_io_failpoint("atomic_file", cut);
    EXPECT_THROW(atomic_write_file(target, replacement), std::runtime_error)
        << cut;
    disarm_io_failpoint();
    EXPECT_EQ(read_file(target), "precious original") << "cut " << cut;
    EXPECT_FALSE(fs::exists(target + ".tmp")) << "cut " << cut;
  }
  atomic_write_file(target, replacement);
  EXPECT_EQ(read_file(target), replacement);
}

TEST_F(AtomicFileCrashPointTest, DirectorySyncHelperAcceptsRelativeAndAbsolute) {
  const std::string target = path("synced.txt");
  atomic_write_file(target, "x");
  EXPECT_NO_THROW(fsync_directory_of(target));
  EXPECT_NO_THROW(fsync_directory_of("bare-filename-no-directory"));
  EXPECT_THROW(fsync_directory_of(path("absent-subdir") + "/file"),
               std::runtime_error);
}

// --- wire ------------------------------------------------------------------

using WireCrashPointTest = FailpointFixture;

TEST_F(WireCrashPointTest, TornFrameAtEveryOffsetIsDetectedByTheReader) {
  const std::string payload = "work 12 3";
  const std::size_t frame = 8 + payload.size();
  for (std::size_t cut = 0; cut < frame; ++cut) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    arm_io_failpoint("wire", cut);
    EXPECT_FALSE(wire_write_frame(fds[1], payload)) << cut;
    disarm_io_failpoint();
    ::close(fds[1]);  // the writer "died": EOF after the torn bytes
    if (cut == 0) {
      // Nothing made it out: a clean EOF between frames.
      EXPECT_EQ(wire_read_frame(fds[0], nullptr), std::nullopt) << cut;
    } else {
      // EOF inside the header or the body: loud, never a misparse.
      EXPECT_THROW(wire_read_frame(fds[0], nullptr), std::runtime_error)
          << cut;
    }
    ::close(fds[0]);
  }
}

TEST_F(WireCrashPointTest, BytesAfterATornFrameFailTheCrc) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string first = "first frame payload";
  arm_io_failpoint("wire", 8 + first.size() - 3);  // chop 3 payload bytes
  EXPECT_FALSE(wire_write_frame(fds[1], first));
  disarm_io_failpoint();
  // A later (complete) frame lands right after the torn bytes.  The reader
  // parses the first header, swallows 3 bytes of the second frame as the
  // missing payload, and the CRC convicts the stream.
  EXPECT_TRUE(wire_write_frame(fds[1], "second frame"));
  ::close(fds[1]);
  WireReader reader(fds[0]);
  // Blocking fd: pump() drains to EOF in one loop.
  reader.pump();
  std::string out;
  EXPECT_FALSE(reader.next(out));
  EXPECT_TRUE(reader.corrupt());
  ::close(fds[0]);
}

TEST_F(WireCrashPointTest, FullyAdmittedFrameStillRoundTrips) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  arm_io_failpoint("wire", 1024);  // generous budget: no tear
  EXPECT_TRUE(wire_write_frame(fds[1], "ok 5"));
  disarm_io_failpoint();
  ::close(fds[1]);
  const auto got = wire_read_frame(fds[0], nullptr);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "ok 5");
  ::close(fds[0]);
}

}  // namespace
}  // namespace divlib
