#include "queue/queue_service.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif
#ifdef __linux__
#include <linux/fs.h>
#include <sys/ioctl.h>
#endif

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/journal.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// flock-based advisory lock: exclusive for mutations, shared for snapshots.
// flock (not fcntl) so the lock is per open-file-description -- two threads
// of one process contend correctly, and it vanishes with the fd when the
// holder is SIGKILLed (the crashed-coordinator case the queue must survive).
class FileLock {
 public:
  FileLock(const std::string& path, bool exclusive) {
#ifndef _WIN32
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      throw std::runtime_error("queue lock: cannot open '" + path +
                               "': " + std::strerror(errno));
    }
    while (::flock(fd_, exclusive ? LOCK_EX : LOCK_SH) != 0) {
      if (errno != EINTR) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("queue lock: flock of '" + path +
                                 "' failed: " + std::strerror(saved));
      }
    }
#else
    (void)path;
    (void)exclusive;
#endif
  }
  ~FileLock() {
#ifndef _WIN32
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
#endif
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

// Marks `directory` as the top of unrelated directory trees (`chattr +T`),
// so the ext2/3/4 allocator spreads the subdirectories made in it over
// block groups, as it does for those of /home.  Campaign directories are
// unrelated trees.  Without the mark every campaign's inodes share one
// block group with whatever was made and deleted nearby, and ext4 without
// a journal scans past each inode freed there in the last minute or more
// on every allocation: a queued campaign's four creations took from 0.1 ms
// to 2-3 ms depending on how much had been deleted before it.  Best
// effort: other file systems refuse the flag, and nothing depends on it.
void mark_top_directory(const std::string& directory) {
#ifdef __linux__
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return;
  }
  int flags = 0;
  if (::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0 &&
      (flags & FS_TOPDIR_FL) == 0) {
    flags |= FS_TOPDIR_FL;
    (void)::ioctl(fd, FS_IOC_SETFLAGS, &flags);
  }
  ::close(fd);
#else
  (void)directory;
#endif
}

}  // namespace

CampaignQueue::CampaignQueue(QueueOptions options)
    : options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument("CampaignQueue: directory must not be empty");
  }
  if (options_.lease_ms < kMinLeaseMs) {
    throw std::invalid_argument(
        "CampaignQueue: lease_ms must be at least " +
        std::to_string(kMinLeaseMs) + ", got " +
        std::to_string(options_.lease_ms));
  }
  if (!options_.now_ms) {
    options_.now_ms = wall_clock_ms;
  }
  fs::create_directories(options_.directory);
  const fs::path campaigns = fs::path(options_.directory) / "campaigns";
  if (fs::create_directories(campaigns)) {
    mark_top_directory(campaigns.string());
  }
  // Fail fast on an unreplayable journal: better at construction than in
  // the middle of someone's submit.  Read-only on purpose -- a torn tail
  // stays on disk so `status` can report it (and exit 4); the next
  // mutation truncates it under its exclusive lock.
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/false);
  (void)refresh_locked(/*heal=*/false);
}

std::string CampaignQueue::journal_path() const {
  return (fs::path(options_.directory) / "queue.journal").string();
}

std::string CampaignQueue::lock_path() const {
  return (fs::path(options_.directory) / "queue.lock").string();
}

std::string CampaignQueue::campaign_directory(std::uint64_t id) const {
  return (fs::path(options_.directory) / "campaigns" / std::to_string(id))
      .string();
}

const CampaignQueue::ViewCache& CampaignQueue::refresh_locked(
    bool heal, bool* torn) const {
  const std::string path = journal_path();
  // A missing journal reads as no bytes, which fold to the empty queue.
  std::string bytes = fs::exists(path) ? read_file(path) : std::string();
  JournalRecovery scan;
  if (cache_ && bytes.starts_with(cache_->bytes)) {
    try {
      scan = scan_journal(bytes, path, cache_->bytes.size());
      fold_queue_records(cache_->view, scan.records, cache_->records);
    } catch (const std::exception&) {
      cache_.reset();  // a partial fold; the error already names the record
      throw;
    }
    cache_->records += scan.records.size();
  } else {
    // Nothing cached yet, or the file shrank or its prefix changed.
    cache_.reset();
    scan = scan_journal(bytes, path);
    cache_ = ViewCache{std::string(), replay_queue(scan.records),
                       scan.records.size()};
  }
  bytes.resize(scan.valid_bytes);
  cache_->bytes = std::move(bytes);
  if (heal && scan.torn()) {
    // A torn tail is a crashed writer's last partial append: truncate it
    // (the decision it was recording never happened).
    fs::resize_file(path, scan.valid_bytes);
  }
  if (torn != nullptr) {
    *torn = scan.torn();
  }
  return *cache_;
}

const QueueView& CampaignQueue::load_locked() const {
  return refresh_locked(/*heal=*/true).view;
}

void CampaignQueue::append_locked(const std::vector<QueueRecord>& records) {
  JournalWriter writer(journal_path());
  for (const QueueRecord& record : records) {
    writer.append(encode_queue_record(record));
  }
  // close() throws on a failed flush/fsync: a queue decision either reaches
  // stable storage or the caller hears about it, never a silent maybe.
  writer.close();
}

std::size_t CampaignQueue::requeue_expired_locked(const QueueView& view,
                                                 std::int64_t now) {
  std::vector<QueueRecord> expirations;
  for (const CampaignEntry& entry : view.campaigns) {
    if ((entry.phase == CampaignPhase::kLeased ||
         entry.phase == CampaignPhase::kRunning) &&
        entry.lease_deadline_ms <= now) {
      QueueRecord record;
      record.kind = QueueRecord::Kind::kRequeue;
      record.campaign = entry.id;
      record.lease = entry.lease;
      record.text = "lease " + std::to_string(entry.lease) +
                    " expired (deadline " +
                    std::to_string(entry.lease_deadline_ms) + "ms, now " +
                    std::to_string(now) + "ms)";
      expirations.push_back(std::move(record));
    }
  }
  if (!expirations.empty()) {
    append_locked(expirations);
  }
  return expirations.size();
}

SubmitOutcome CampaignQueue::submit(const std::string& config) {
  if (config.empty() || config.find('\n') != std::string::npos) {
    throw std::invalid_argument(
        "queue submit: config must be one non-empty line");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView& view = load_locked();
  const std::uint32_t fingerprint = crc32_of(config);
  // Dedup: an identical config still live in the queue is the same work;
  // admitting it twice would burn a second campaign's worth of compute.
  for (const CampaignEntry& entry : view.campaigns) {
    if (!phase_is_terminal(entry.phase) &&
        entry.fingerprint == fingerprint && entry.config == config) {
      return SubmitOutcome{entry.id, /*duplicate=*/true};
    }
  }
  const std::size_t queued = view.count(CampaignPhase::kQueued);
  if (queued >= options_.max_depth) {
    throw QueueRefusal("queue '" + options_.directory + "' refused submit: " +
                       std::to_string(queued) + " campaigns queued >= " +
                       "max depth " + std::to_string(options_.max_depth));
  }
  QueueRecord record;
  record.kind = QueueRecord::Kind::kSubmit;
  record.campaign = view.next_campaign_id;
  record.fingerprint = fingerprint;
  record.text = config;
  append_locked({record});
  return SubmitOutcome{record.campaign, /*duplicate=*/false};
}

std::optional<CampaignEntry> CampaignQueue::lease_next() {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView* view = &load_locked();
  const std::int64_t now = options_.now_ms();
  if (requeue_expired_locked(*view, now) > 0) {
    view = &load_locked();  // pick up the campaigns the expiry freed
  }
  const CampaignEntry* oldest = view->oldest_queued();
  if (oldest == nullptr) {
    return std::nullopt;
  }
  QueueRecord record;
  record.kind = QueueRecord::Kind::kLease;
  record.campaign = oldest->id;
  record.lease = view->next_lease_id;
  record.deadline_ms = now + options_.lease_ms;
  append_locked({record});
  CampaignEntry leased = *oldest;
  leased.phase = CampaignPhase::kLeased;
  leased.lease = record.lease;
  leased.lease_deadline_ms = record.deadline_ms;
  return leased;
}

namespace {

// Shared validation for the lease-holder operations.
const CampaignEntry& require_lease(const QueueView& view,
                                   std::uint64_t campaign,
                                   std::uint64_t lease, const char* op) {
  const CampaignEntry* entry = view.find(campaign);
  if (entry == nullptr) {
    throw std::runtime_error(std::string("queue ") + op + ": campaign " +
                             std::to_string(campaign) + " does not exist");
  }
  const bool held = (entry->phase == CampaignPhase::kLeased ||
                     entry->phase == CampaignPhase::kRunning) &&
                    entry->lease == lease;
  if (!held) {
    throw StaleLease(std::string("queue ") + op + ": campaign " +
                     std::to_string(campaign) + " is " +
                     to_string(entry->phase) + " under lease " +
                     std::to_string(entry->lease) + ", caller holds lease " +
                     std::to_string(lease));
  }
  return *entry;
}

}  // namespace

void CampaignQueue::renew(std::uint64_t campaign, std::uint64_t lease) {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView& view = load_locked();
  require_lease(view, campaign, lease, "renew");
  QueueRecord record;
  record.kind = QueueRecord::Kind::kRenew;
  record.campaign = campaign;
  record.lease = lease;
  record.deadline_ms = options_.now_ms() + options_.lease_ms;
  append_locked({record});
}

void CampaignQueue::mark_running(std::uint64_t campaign,
                                 std::uint64_t lease) {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView& view = load_locked();
  const CampaignEntry& entry =
      require_lease(view, campaign, lease, "mark_running");
  if (entry.phase != CampaignPhase::kLeased) {
    throw std::runtime_error("queue mark_running: campaign " +
                             std::to_string(campaign) + " is already " +
                             to_string(entry.phase));
  }
  QueueRecord record;
  record.kind = QueueRecord::Kind::kRunning;
  record.campaign = campaign;
  record.lease = lease;
  append_locked({record});
}

void CampaignQueue::finish(std::uint64_t campaign, std::uint64_t lease,
                           CampaignPhase phase, const std::string& detail) {
  if (!phase_is_terminal(phase)) {
    throw std::invalid_argument("queue finish: phase must be terminal");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView& view = load_locked();
  require_lease(view, campaign, lease, "finish");
  QueueRecord record;
  record.kind = QueueRecord::Kind::kFinish;
  record.campaign = campaign;
  record.lease = lease;
  record.phase = phase;
  record.text = detail;
  append_locked({record});
}

void CampaignQueue::release(std::uint64_t campaign, std::uint64_t lease,
                            const std::string& reason) {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView& view = load_locked();
  require_lease(view, campaign, lease, "release");
  QueueRecord record;
  record.kind = QueueRecord::Kind::kRequeue;
  record.campaign = campaign;
  record.lease = lease;
  record.text = reason;
  append_locked({record});
}

std::size_t CampaignQueue::requeue_expired() {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  return requeue_expired_locked(load_locked(), options_.now_ms());
}

std::size_t CampaignQueue::drain(const std::string& reason) {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/true);
  const QueueView& view = load_locked();
  std::vector<QueueRecord> cancels;
  for (const CampaignEntry& entry : view.campaigns) {
    if (entry.phase == CampaignPhase::kQueued) {
      QueueRecord record;
      record.kind = QueueRecord::Kind::kCancel;
      record.campaign = entry.id;
      record.text = reason;
      cancels.push_back(std::move(record));
    }
  }
  if (!cancels.empty()) {
    append_locked(cancels);
  }
  return cancels.size();
}

QueueSnapshot CampaignQueue::snapshot() const {
  std::lock_guard<std::mutex> guard(mutex_);
  FileLock lock(lock_path(), /*exclusive=*/false);
  QueueSnapshot snap;
  const ViewCache& cache = refresh_locked(/*heal=*/false, &snap.torn);
  snap.view = cache.view;
  snap.records = cache.records;
  return snap;
}

}  // namespace divlib
