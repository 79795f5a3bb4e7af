// Crash-safe, multi-process campaign queue over queue.journal.
//
// Every mutation takes an exclusive flock on <dir>/queue.lock, reads the
// journal (truncating any torn tail a crashed writer left), folds it into a
// QueueView, validates the requested transition against that state,
// appends the decision record, and fsyncs before releasing the lock.  That
// makes the queue safe for many submitting clients and a coordinator in
// separate processes -- the write path is "lock, read, fold, decide,
// append, sync" with the journal as the only state.
//
// The fold is incremental.  A CampaignQueue keeps the view it last folded
// together with the exact journal bytes it folded it from.  Each operation
// still reads the whole file under the lock; when the cached bytes are a
// prefix of what it read, it CRC-checks and folds only the frames after
// them, at their journal-wide record indices.  A view is a pure function of
// the bytes folded, so a cache whose bytes prefix the file is the fold of
// that prefix whoever appended the rest -- another process, another
// instance, or this one.  It cannot serve a stale view: every byte it
// trusts is compared with the file read under the lock, and the suffix is
// folded with the same strict replay.  Anything else -- a file that shrank
// or whose prefix was rewritten, a different file -- folds the whole
// journal from scratch, as replay_queue() always did.  A fold that throws
// drops the cache, so the next operation starts from scratch too.
//
// Admission control: submit() refuses (QueueRefusal) when the Queued depth
// has reached max_depth, and dedups resubmissions -- an identical config
// already live in the queue returns the existing campaign id instead of
// queuing the work twice.
//
// Leases: lease_next() first requeues any lease whose wall-clock deadline
// has passed (the crashed-coordinator path), then hands out the oldest
// Queued campaign under a fresh monotonic lease id.  Holders renew at a
// cadence well under lease_ms; a holder that dies simply stops renewing and
// loses the campaign to the next coordinator.  renew/mark_running/finish/
// release all throw StaleLease when the caller's lease is no longer
// current, so a zombie coordinator cannot stomp a re-leased campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "queue/queue_records.hpp"

namespace divlib {

// Loud admission refusal: the queue is full.  Mapped to its own exit code
// by divsim so schedulers can distinguish "try later" from a hard error.
class QueueRefusal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The caller's lease is no longer the campaign's current lease (it expired
// and was requeued, possibly re-leased by someone else).
class StaleLease : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The shortest lease CampaignQueue accepts.  A holder renews every
// lease_ms / 3, so at the minimum it appends a renew record (lock, replay,
// append, fsync) every 50ms, and a renewal may run two whole intervals late
// before the lease lapses.
constexpr std::int64_t kMinLeaseMs = 150;

struct QueueOptions {
  std::string directory;          // holds queue.journal, queue.lock, campaigns/
  std::size_t max_depth = 256;    // Queued campaigns admitted at once
  std::int64_t lease_ms = 30'000; // lease lifetime granted by lease_next(),
                                  // at least kMinLeaseMs
  // Wall-clock source in ms since the Unix epoch; tests inject a fake one.
  // Defaults to std::chrono::system_clock.
  std::function<std::int64_t()> now_ms;
};

struct SubmitOutcome {
  std::uint64_t campaign = 0;
  bool duplicate = false;  // an identical live config already held this id
};

// A read-only snapshot plus the recovery evidence it was built from.
struct QueueSnapshot {
  QueueView view;
  bool torn = false;            // the on-disk journal ended in a torn tail
  std::uint64_t records = 0;    // intact records replayed
};

class CampaignQueue {
 public:
  // Creates the directory (recursively) when missing.  Throws on an
  // unwritable directory or an existing journal that fails replay.  The
  // replay seeds the view cache.
  explicit CampaignQueue(QueueOptions options);

  CampaignQueue(const CampaignQueue&) = delete;
  CampaignQueue& operator=(const CampaignQueue&) = delete;

  // Admits one campaign.  Throws QueueRefusal at max_depth; returns the
  // existing id (duplicate = true) when an identical config is already
  // Queued/Leased/Running.
  SubmitOutcome submit(const std::string& config);

  // Requeues expired leases, then leases the oldest Queued campaign for
  // lease_ms.  nullopt when nothing is Queued (live-but-leased work may
  // still exist; see snapshot().view.has_live_work()).
  std::optional<CampaignEntry> lease_next();

  // Lease heartbeat: pushes the deadline to now + lease_ms.
  void renew(std::uint64_t campaign, std::uint64_t lease);

  // Marks the leased campaign as launched.
  void mark_running(std::uint64_t campaign, std::uint64_t lease);

  // Terminal verdict (phase must be terminal).
  void finish(std::uint64_t campaign, std::uint64_t lease, CampaignPhase phase,
              const std::string& detail);

  // Voluntary requeue (e.g. operator cancel mid-campaign): the checkpoint
  // stays, the campaign goes back to Queued for a later coordinator.
  void release(std::uint64_t campaign, std::uint64_t lease,
               const std::string& reason);

  // Requeues every lease whose deadline passed; returns how many.
  std::size_t requeue_expired();

  // Cancels every Queued campaign; returns how many.
  std::size_t drain(const std::string& reason);

  // Read-only view (shared lock; never truncates a torn tail).
  QueueSnapshot snapshot() const;

  // <directory>/campaigns/<id> -- where the campaign's own checkpoint
  // (campaign.meta + results.journal) lives.
  std::string campaign_directory(std::uint64_t id) const;

  const QueueOptions& options() const { return options_; }
  std::string journal_path() const;

 private:
  // The fold of journal bytes `bytes` (the magic and the intact frames
  // after it, exactly as read), holding `records` records.
  struct ViewCache {
    std::string bytes;
    QueueView view;
    std::uint64_t records = 0;
  };

  std::string lock_path() const;
  // Brings the cache up to date with the journal under a lock the caller
  // already holds, and returns it.  `heal` (exclusive lock only) truncates
  // a torn tail; `torn`, when given, reports whether the file had one.
  const ViewCache& refresh_locked(bool heal, bool* torn = nullptr) const;
  // The refreshed view under an already-held exclusive lock.
  const QueueView& load_locked() const;
  // Append + fsync decision records under the same lock.
  void append_locked(const std::vector<QueueRecord>& records);
  // Appends requeue records for expired leases; returns how many.
  std::size_t requeue_expired_locked(const QueueView& view,
                                     std::int64_t now);

  QueueOptions options_;
  mutable std::mutex mutex_;  // serializes threads within this process
  mutable std::optional<ViewCache> cache_;  // guarded by mutex_
};

}  // namespace divlib
