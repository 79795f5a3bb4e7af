// Append-only record log for long Monte-Carlo campaigns.
//
// A campaign that runs for hours must never lose finished work to a SIGKILL,
// OOM kill, or power cut.  The journal gives replica results the standard
// write-ahead-log durability shape:
//
//   * every record is framed [u32 length][u32 crc32(payload)][payload bytes]
//     (little-endian), preceded once by the 8-byte file magic "DIVJRNL1";
//   * records are appended and flushed (fflush + fsync) at a configurable
//     cadence, so a crash loses at most the records since the last flush;
//     concurrent flushers share one fsync (group commit, see JournalWriter);
//   * recovery reads the longest valid prefix and treats anything after the
//     first short/corrupt frame as a torn tail: recover_journal() truncates
//     it in place instead of failing, because a torn tail is the *expected*
//     crash artifact, not an error.
//
// Payloads are opaque bytes; the campaign layer (engine/campaign.*) encodes
// replica ids and results into them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace divlib {

struct JournalRecovery {
  std::vector<std::string> records;  // intact payloads, in append order
  std::uint64_t valid_bytes = 0;     // magic + intact frames
  std::uint64_t total_bytes = 0;     // file size as found on disk
  // True when the file ended in a short or CRC-corrupt frame.
  bool torn() const { return valid_bytes < total_bytes; }
};

// Reads the longest valid prefix of the journal at `path` without modifying
// the file.  Throws std::runtime_error when the file cannot be opened or its
// magic is wrong (a wrong magic means "not a journal", never a torn tail).
JournalRecovery read_journal(const std::string& path);

// read_journal() + in-place truncation of any torn tail, so a subsequent
// JournalWriter appends after the last intact record.
JournalRecovery recover_journal(const std::string& path);

// How a JournalWriter's records reach stable storage.
enum class JournalSync {
  // flush() fsyncs, and a new file's magic and directory entry are synced
  // when it is created: a crash loses at most the records since the last
  // flush.
  kFsync,
  // Never fsyncs: flush(), close() and the destructor only write records
  // through to the OS.  A killed process keeps every record; a machine
  // crash may lose the tail or the whole file.  For logs that are never a
  // correctness input, where an fsync would buy nothing.
  kWriteThrough,
};

// Appender.  Creates the file (with magic) when absent; otherwise appends at
// the current end -- run recover_journal() first after a crash so the tail
// is intact.  Thread-safe: append(), publish() and flush() may be called
// from many threads at once (close() and the destructor may not race them).
//
// flush() is a group commit.  One caller at a time leads: it fflushes under
// the append mutex, notes how many records that covered, and fsyncs with
// the mutex released, so appends continue during the disk wait.  Callers
// that arrive meanwhile wait for the durable watermark; when it covers
// their records they return without an fsync of their own, otherwise the
// next leader's fsync covers them.  Concurrent flushers therefore share
// one fsync instead of queueing for one each.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path,
                         JournalSync sync = JournalSync::kFsync);
  // Flushes + fsyncs (when records appended since the last flush() await
  // it) + closes.  A failure cannot throw here, so it is reported loudly on
  // stderr instead; call close() first when the caller must distinguish
  // "durable" from "hopefully durable".
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Frames and appends one payload.  Throws std::runtime_error on I/O error.
  void append(std::string_view payload);

  // fflush without fsync: every record appended so far reaches the OS, so a
  // reader -- or a resume after this process is killed -- sees it at once.
  // Only flush() makes it survive a machine crash.
  void publish();

  // Everything appended before this call is durable when it returns
  // (fflush + fsync, shared with concurrent callers as described above).
  // Returns true when this call ran the fsync, false when another caller's
  // fsync covered its records or nothing was appended since the last one.
  // Under JournalSync::kWriteThrough it is publish() and returns false.
  // A failed fflush/fsync throws std::runtime_error here and in every later
  // flush(): after a failed fsync the kernel may report the next one clean
  // although the data is lost, so the writer never claims durability again.
  bool flush();

  // flush() + fclose with every error surfaced as std::runtime_error.
  // Idempotent; append()/flush() after close() throw.
  void close();

  std::uint64_t records_written() const;

 private:
  mutable std::mutex mu_;  // the append mutex: file_ buffer and counters
  std::condition_variable durable_cv_;
  std::FILE* file_ = nullptr;
  std::string path_;
  JournalSync sync_ = JournalSync::kFsync;
  std::uint64_t records_written_ = 0;
  std::uint64_t durable_ = 0;  // records known to be on disk
  bool syncing_ = false;       // a leader's fsync is in flight
  std::string sync_error_;     // set by the first failed fflush/fsync
};

}  // namespace divlib
