// Durable, resumable Monte-Carlo campaigns.
//
// A campaign is a replicated experiment whose per-replica results are
// journaled to disk as they complete, so hours of finished work survive a
// SIGKILL, OOM kill, or machine preemption.  Layout of a checkpoint
// directory:
//
//   <dir>/campaign.meta     -- caller-supplied configuration fingerprint,
//                              written atomically before the first record;
//                              resume refuses a mismatching config.
//   <dir>/results.journal   -- append-only CRC-framed log (io/journal.*);
//                              one record per finished replica:
//                              "<replica-id> <payload>".
//
// A restart with resume = true recovers the journal (truncating a torn
// tail), loads the finished replicas, and re-runs ONLY the missing ones.
// Because every replica is seeded from its true id via
// Rng::retry_seed(master_seed, replica, attempt), the merged results are
// bit-identical to an uninterrupted run -- interruption is invisible in the
// data.
//
// Both drivers run their replica set on run_supervised_set's thread
// executor (engine/supervisor): run_campaign through the isolated adapter
// under supervision_off (engine/montecarlo), run_supervised_campaign under
// the caller's policy.  They differ only in what they journal.
//
// Cancellation composes: when MonteCarloOptions::cancel fires, workers stop
// claiming replicas and in-flight ones drain (pass the same token through
// RunOptions::cancel so they drain at a step boundary); a drained replica
// whose task returns nullopt is NOT journaled and re-runs on resume, and so
// does one whose attempt fails after the token fired (no retry runs during
// shutdown).
// A SUPERVISED campaign (run_supervised_campaign) adds the policy layer from
// engine/supervisor.hpp on top of the same directory format: poison replicas
// that exhaust their attempt budget are written as quarantine records
// ("quarantine <id> <class> <attempts> <message>") so a resume SKIPS them
// instead of re-poisoning the run, and the campaign completes in a graded
// CampaignStatus -- kDegraded when the success quorum holds, kFailed when it
// does not.  Unsupervised resumes refuse a journal holding quarantine
// records (silently re-running a quarantined replica could hang forever).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/montecarlo.hpp"
#include "engine/supervisor.hpp"

namespace divlib {

struct CampaignOptions {
  // Checkpoint directory; created (recursively) when missing.
  std::string directory;
  // Journal flush + fsync cadence in records; 1 = every record is crash-safe
  // the moment it lands, larger values trade at most that many replicas of
  // lost work for fewer fsyncs.
  std::uint64_t flush_every = 1;
  // false: the directory must not already hold a journal (guards against
  // silently mixing two campaigns); true: load it and skip finished work.
  bool resume = false;
  // Configuration fingerprint (graph spec, k, seed, ...).  Stored on first
  // run; a resume whose meta differs throws -- resuming under a different
  // configuration would corrupt the merged results.
  std::string meta;
  MonteCarloOptions mc;
  // Optional heartbeat: run_campaign() beats it with reason "flush" after
  // every journal flush (including the final one), so the telemetry stream
  // always carries a progress record at least as fresh as the last durable
  // replica.  When mc.progress is also set, the driver seeds its `total`
  // and `resumed` counters before any replica runs.  Null disables both.
  Heartbeat* heartbeat = nullptr;
  // Supervised resumes only: re-admit journal-quarantined replicas with the
  // poison-seed dodge -- each re-admitted replica starts at the attempt
  // index AFTER the ones its quarantine record consumed, so the retry runs
  // on fresh Rng::retry_seed streams instead of replaying the seeds that
  // already failed deterministically.  A replica that fails again is
  // re-quarantined with an updated (cumulative) attempt count.
  bool retry_quarantined = false;
};

struct CampaignResult {
  // One slot per replica: the journaled payload, or nullopt when the replica
  // did not finish (cancelled before/while running, or persistently failed).
  std::vector<std::optional<std::string>> payloads;
  std::size_t resumed = 0;  // finished replicas loaded from the journal
  std::size_t ran = 0;      // replicas executed and journaled this session
  // The cancel token fired AND work remains: resume to finish the rest.  A
  // token that fires only after the final replica drained leaves the
  // campaign complete, so there is nothing to cancel (report.cancelled still
  // records that the token fired).
  bool cancelled = false;
  BatchReport report;       // errors/retries among replicas run this session
  bool complete() const { return resumed + ran == payloads.size(); }
};

// Runs replicas [0, replicas), journaling each finished replica's payload.
// `task` returns the payload to persist, or nullopt to mark the replica
// unfinished (the convention for a cancelled drain).  Task exceptions are
// retried on the retry_seed streams up to options.mc.max_attempts (the
// supervision-off policy) and, when persistent, end up in report.errors
// with no journal record.  Throws
// std::runtime_error on directory/journal failures or a meta mismatch.
CampaignResult run_campaign(
    std::size_t replicas,
    const std::function<std::optional<std::string>(std::size_t, Rng&)>& task,
    const CampaignOptions& options);

// Journal payload helpers shared by the driver and tools: records are
// "<replica-id> <payload-bytes>" with the id in decimal.
std::string encode_campaign_record(std::size_t replica,
                                   std::string_view payload);
// Throws std::invalid_argument on a malformed record.
std::pair<std::size_t, std::string> decode_campaign_record(
    std::string_view record);

// How a supervised campaign ended.
enum class CampaignStatus {
  kComplete,   // every replica has a journaled payload
  kDegraded,   // quarantines exist but success_fraction meets the quorum
  kFailed,     // quarantines pushed success below min_success_fraction
  kCancelled,  // operator cancel left resumable (non-quarantined) work
};

const char* to_string(CampaignStatus status);

// Quarantine journal records.  They share the results.journal framing but
// carry a non-numeric "quarantine" prefix, so pre-supervision readers fail
// loudly (decode_campaign_record throws) instead of misreading one as a
// payload.
std::string encode_quarantine_record(const QuarantineRecord& record);
bool is_quarantine_record(std::string_view record);
// Throws std::invalid_argument on a malformed record.
QuarantineRecord decode_quarantine_record(std::string_view record);

// Supervision-decision records ("supervision <event-json>").  A supervised
// campaign journals its deadline kills, adaptive-deadline changes, and
// circuit-breaker trips next to the results they shaped, so `divsim journal
// --json` can explain every kill after the fact.  The payload is the
// event's to_json() verbatim.  Like quarantine records, the non-numeric
// prefix makes pre-supervision readers fail loudly; an unsupervised resume
// refuses a journal holding them (the campaign evidently needed deadline
// enforcement to finish).
std::string encode_supervision_record(const SupervisionEvent& event);
bool is_supervision_record(std::string_view record);
// Returns the event JSON carried by the record (no re-parse; emitters embed
// it verbatim).  Throws std::invalid_argument on a missing prefix.
std::string_view decode_supervision_record(std::string_view record);

struct SupervisedCampaignResult {
  // One slot per replica: the journaled payload, or nullopt when the replica
  // is quarantined, unfinished, or cancelled.
  std::vector<std::optional<std::string>> payloads;
  std::size_t resumed = 0;  // payload records loaded from the journal
  std::size_t ran = 0;      // replicas executed and journaled this session
  // Quarantined replicas -- journaled in earlier sessions plus this one --
  // sorted by replica id.  A resume never re-runs these.
  std::vector<QuarantineRecord> quarantined;
  CampaignStatus status = CampaignStatus::kComplete;
  SupervisorReport report;  // THIS session's supervision summary
  bool complete() const { return resumed + ran == payloads.size(); }
};

// Supervised analogue of run_campaign(): runs the replicas missing from the
// journal (skipping quarantined ids) under run_supervised_set.  Seeds,
// thread count, cancellation, and progress come from `supervision`, NOT
// from options.mc; directory/meta/flush/heartbeat semantics are identical
// to run_campaign.  Quarantine records are flushed to the journal the
// moment they happen, so even a SIGKILLed degraded campaign resumes without
// re-running its poison replicas.
SupervisedCampaignResult run_supervised_campaign(
    std::size_t replicas, const SupervisedTask& task,
    const CampaignOptions& options, const SupervisorOptions& supervision);

}  // namespace divlib
