#include "io/journal.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/failpoint.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace divlib {
namespace {

constexpr char kMagic[] = "DIVJRNL1";  // 8 bytes, excluding the terminator
constexpr std::size_t kMagicSize = 8;
constexpr std::size_t kFrameHeaderSize = 8;  // u32 length + u32 crc

void put_u32_le(std::uint32_t value, char out[4]) {
  out[0] = static_cast<char>(value & 0xFFu);
  out[1] = static_cast<char>((value >> 8) & 0xFFu);
  out[2] = static_cast<char>((value >> 16) & 0xFFu);
  out[3] = static_cast<char>((value >> 24) & 0xFFu);
}

std::uint32_t get_u32_le(const char* in) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(in);
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

// fflush + fsync; false when either fails.
bool sync_file(std::FILE* file) {
  bool ok = std::fflush(file) == 0;
#ifndef _WIN32
  if (fsync(fileno(file)) != 0) {
    ok = false;
  }
#endif
  return ok;
}

}  // namespace

JournalRecovery read_journal(const std::string& path) {
  const std::string bytes = read_file(path);
  JournalRecovery recovery;
  recovery.total_bytes = bytes.size();
  if (bytes.size() < kMagicSize ||
      bytes.compare(0, kMagicSize, kMagic, kMagicSize) != 0) {
    // An empty or partially-written magic is a torn creation; anything else
    // under a journal path is a foreign file and must not be truncated.
    if (bytes.size() < kMagicSize &&
        std::string_view(kMagic, kMagicSize)
                .substr(0, bytes.size()) == bytes) {
      return recovery;  // torn during creation: valid prefix is empty
    }
    throw std::runtime_error("read_journal: '" + path +
                             "' is not a divlib journal (bad magic)");
  }
  std::size_t offset = kMagicSize;
  recovery.valid_bytes = offset;
  while (bytes.size() - offset >= kFrameHeaderSize) {
    const std::uint32_t length = get_u32_le(bytes.data() + offset);
    const std::uint32_t stored_crc = get_u32_le(bytes.data() + offset + 4);
    if (bytes.size() - offset - kFrameHeaderSize < length) {
      break;  // short frame: torn tail
    }
    const std::string_view payload(bytes.data() + offset + kFrameHeaderSize,
                                   length);
    if (crc32_of(payload) != stored_crc) {
      break;  // corrupt frame: treat like a torn tail, keep the prefix
    }
    recovery.records.emplace_back(payload);
    offset += kFrameHeaderSize + length;
    recovery.valid_bytes = offset;
  }
  return recovery;
}

JournalRecovery recover_journal(const std::string& path) {
  JournalRecovery recovery = read_journal(path);
  if (recovery.torn()) {
    std::filesystem::resize_file(path, recovery.valid_bytes);
    recovery.total_bytes = recovery.valid_bytes;
  }
  return recovery;
}

JournalWriter::JournalWriter(const std::string& path, JournalSync sync)
    : path_(path), sync_(sync) {
  // A zero-byte file (e.g. a magic torn away by recovery) needs the magic
  // re-written just like a brand-new one.
  const bool fresh = !std::filesystem::exists(path) ||
                     std::filesystem::file_size(path) == 0;
  file_ = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("JournalWriter: cannot open '" + path + "'");
  }
  if (fresh) {
    // An armed "journal" failpoint can tear the magic itself -- the torn
    // creation case read_journal() classifies as an empty valid prefix.
    std::size_t admitted = kMagicSize;
    if (io_failpoint_armed("journal")) {
      admitted = io_failpoint_admit("journal", kMagicSize);
    }
    const bool wrote =
        std::fwrite(kMagic, 1, admitted, file_) == admitted &&
        admitted == kMagicSize;
    // A brand-new journal is only findable after a crash once its directory
    // entry is durable: sync the magic, then fsync the parent directory,
    // mirroring atomic_write_file's rename discipline.  A write-through
    // journal skips both.
    const bool fsynced = sync_ == JournalSync::kFsync;
    if (!wrote ||
        !(fsynced ? sync_file(file_) : std::fflush(file_) == 0)) {
      std::fclose(file_);
      file_ = nullptr;
      throw std::runtime_error("JournalWriter: cannot write magic to '" +
                               path + "'");
    }
    if (fsynced) {
      fsync_directory_of(path);
    }
  }
}

JournalWriter::~JournalWriter() {
  if (file_ == nullptr) {
    return;
  }
  // Destructors must not throw, but a failed final sync must not masquerade
  // as durability either: evaluate every step (no short-circuit skipping
  // fclose) and surface the failure on stderr.  Callers who need a hard
  // guarantee use close(), which throws like flush() does.  Like flush(),
  // the final sync is skipped when no record awaits it.
  const bool pending =
      sync_ == JournalSync::kFsync && durable_ < records_written_;
  bool durable = (pending ? sync_file(file_) : std::fflush(file_) == 0) &&
                 sync_error_.empty();
  if (std::fclose(file_) != 0) {
    durable = false;
  }
  file_ = nullptr;
  if (!durable) {
    std::fprintf(stderr,
                 "divlib: JournalWriter: final flush/fsync of '%s' failed; "
                 "records since the last successful flush may not be "
                 "durable\n",
                 path_.c_str());
  }
}

void JournalWriter::close() {
  if (file_ == nullptr) {
    return;
  }
  flush();  // throws on fflush/fsync failure, with the file still open
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = file_;
  file_ = nullptr;
  if (std::fclose(file) != 0) {
    throw std::runtime_error("JournalWriter: close of '" + path_ + "' failed");
  }
}

std::uint64_t JournalWriter::records_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_written_;
}

void JournalWriter::append(std::string_view payload) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    throw std::runtime_error("JournalWriter: append to closed '" + path_ +
                             "'");
  }
  if (payload.size() > 0xFFFFFFFFull) {
    throw std::runtime_error("JournalWriter: payload exceeds the u32 frame");
  }
  char header[kFrameHeaderSize];
  put_u32_le(static_cast<std::uint32_t>(payload.size()), header);
  put_u32_le(crc32_of(payload), header + 4);
  if (io_failpoint_armed("journal")) {
    // Crash-point injection: persist exactly the admitted prefix of the
    // frame (header + payload as one byte stream), then fail the append --
    // the on-disk image is what a SIGKILL at that offset would leave.
    std::string frame(header, kFrameHeaderSize);
    frame.append(payload);
    const std::size_t admitted = io_failpoint_admit("journal", frame.size());
    if (admitted < frame.size()) {
      if (admitted > 0) {
        std::fwrite(frame.data(), 1, admitted, file_);
      }
      std::fflush(file_);
      throw std::runtime_error("JournalWriter: failpoint tore append to '" +
                               path_ + "'");
    }
  }
  if (std::fwrite(header, 1, kFrameHeaderSize, file_) != kFrameHeaderSize ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file_) !=
           payload.size())) {
    throw std::runtime_error("JournalWriter: append to '" + path_ +
                             "' failed");
  }
  ++records_written_;
}

void JournalWriter::publish() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    throw std::runtime_error("JournalWriter: publish to closed '" + path_ +
                             "'");
  }
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("JournalWriter: flush of '" + path_ + "' failed");
  }
}

bool JournalWriter::flush() {
  if (sync_ == JournalSync::kWriteThrough) {
    publish();
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    throw std::runtime_error("JournalWriter: flush of closed '" + path_ +
                             "'");
  }
  const std::uint64_t wanted = records_written_;
  bool led = false;
  while (durable_ < wanted) {
    if (!sync_error_.empty()) {
      throw std::runtime_error(sync_error_);
    }
    if (syncing_) {
      // The leader's fsync may cover us; if not, the next leader's will.
      durable_cv_.wait(lock, [this] { return !syncing_; });
      continue;
    }
    // Lead one commit: the fflush covers every record appended so far; the
    // fsync runs without the append mutex.
    syncing_ = true;
    led = true;
    const std::uint64_t covered = records_written_;
    const bool flushed = std::fflush(file_) == 0;
    bool synced = flushed;
#ifndef _WIN32
    const int fd = fileno(file_);
    lock.unlock();
    synced = flushed && fsync(fd) == 0;
    lock.lock();
#endif
    syncing_ = false;
    if (synced) {
      durable_ = covered;
    } else {
      sync_error_ = "JournalWriter: " +
                    std::string(flushed ? "fsync" : "flush") + " of '" +
                    path_ + "' failed";
    }
    durable_cv_.notify_all();
  }
  return led;
}

}  // namespace divlib
