// Durable campaign-queue records and their replayed state machine.
//
// The queue's single source of truth is `queue.journal`, an append-only
// CRC-framed log (io/journal.*) of queue DECISIONS -- never of mutable
// state.  Each record is one human-readable line:
//
//   submit  <id> <fingerprint-hex8> <config...>   admission
//   lease   <id> <lease> <deadline-ms>            dispatch to a coordinator
//   renew   <id> <lease> <deadline-ms>            lease heartbeat
//   running <id> <lease>                          campaign launched
//   requeue <id> <lease> <reason...>              lease expired / released
//   finish  <id> <lease> <phase> <detail...>      terminal verdict
//   cancel  <id> <reason...>                      drained while still queued
//
// Replaying the records folds them into the per-campaign state machine
//
//   Queued -> Leased -> Running -> Complete | Degraded | Failed
//     ^          \________/
//     |     requeue (lease lost)
//   Cancelled (only from Queued)
//
// with two monotonic counters -- campaign ids and lease ids -- recovered as
// max-seen + 1, so a restarted coordinator can never reuse a lease a dead
// one still holds.  Replay is strict: a record that does not type-check or
// names an illegal transition throws, because a queue journal is written
// under a file lock and validated before every append -- an inconsistent
// one means tampering or a code bug, not a crash (crashes only tear the
// tail, which recover_journal() already removes).
//
// Lease deadlines are wall-clock milliseconds since the Unix epoch: they
// must survive the death of the process that wrote them, which rules out
// any monotonic clock.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace divlib {

enum class CampaignPhase {
  kQueued,
  kLeased,
  kRunning,
  kComplete,
  kDegraded,
  kFailed,
  kCancelled,
};

const char* to_string(CampaignPhase phase);
// Throws std::invalid_argument on an unknown name.
CampaignPhase parse_campaign_phase(std::string_view name);
// Complete/Degraded/Failed/Cancelled: no further transitions exist.
bool phase_is_terminal(CampaignPhase phase);

struct QueueRecord {
  enum class Kind {
    kSubmit,
    kLease,
    kRenew,
    kRunning,
    kRequeue,
    kFinish,
    kCancel,
  };
  Kind kind = Kind::kSubmit;
  std::uint64_t campaign = 0;
  std::uint64_t lease = 0;       // 0 for submit/cancel (no lease involved)
  std::uint32_t fingerprint = 0; // submit only: crc32 of the config text
  std::int64_t deadline_ms = 0;  // lease/renew only: wall-clock expiry
  CampaignPhase phase = CampaignPhase::kQueued;  // finish only
  // submit: the campaign's config text; requeue/cancel: the reason;
  // finish: free-form detail.  Always the final field, so it may contain
  // spaces but never a newline.
  std::string text;
};

std::string encode_queue_record(const QueueRecord& record);
// Throws std::invalid_argument on malformed input.
QueueRecord decode_queue_record(std::string_view line);

// One campaign's folded state.
struct CampaignEntry {
  std::uint64_t id = 0;
  std::uint32_t fingerprint = 0;
  std::string config;
  CampaignPhase phase = CampaignPhase::kQueued;
  std::uint64_t lease = 0;           // current lease id; 0 when unleased
  std::int64_t lease_deadline_ms = 0;
  std::uint64_t requeues = 0;        // how many leases died under it
  std::string note;                  // last requeue/cancel reason or finish detail
};

// The whole queue folded from a record sequence.
struct QueueView {
  std::vector<CampaignEntry> campaigns;  // ascending id order
  std::uint64_t next_campaign_id = 1;
  std::uint64_t next_lease_id = 1;

  const CampaignEntry* find(std::uint64_t id) const;
  std::size_t count(CampaignPhase phase) const;
  // Lowest-id campaign currently Queued, or nullptr.
  const CampaignEntry* oldest_queued() const;
  // True when any campaign is still Queued/Leased/Running.
  bool has_live_work() const;
};

// Folds decoded records into a QueueView, validating every transition.
// Throws std::runtime_error naming the offending record index on an illegal
// sequence (e.g. leasing a Running campaign, finishing with a stale lease).
QueueView replay_queue(const std::vector<std::string>& records);

// replay_queue() from the middle of a journal: folds `records` into `view`,
// which must already be the fold of the journal's first `first_index`
// records, so records[i] is the journal's record first_index + i -- the
// index an illegal transition is named by.  After a throw `view` holds a
// partial fold and must be discarded.
void fold_queue_records(QueueView& view,
                        const std::vector<std::string>& records,
                        std::size_t first_index);

}  // namespace divlib
