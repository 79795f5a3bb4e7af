#include "engine/campaign.hpp"

#include <charconv>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "engine/adaptive/calibration.hpp"
#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/journal.hpp"

namespace divlib {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kQuarantinePrefix = "quarantine ";
constexpr std::string_view kSupervisionPrefix = "supervision ";

struct CampaignPaths {
  std::string meta;
  std::string journal;
};

CampaignPaths campaign_paths(const CampaignOptions& options) {
  if (options.directory.empty()) {
    throw std::runtime_error("run_campaign: checkpoint directory is required");
  }
  fs::create_directories(options.directory);
  return {(fs::path(options.directory) / "campaign.meta").string(),
          (fs::path(options.directory) / "results.journal").string()};
}

// Opens or validates the campaign directory shared by both drivers: meta
// fingerprint check, torn-tail recovery, and record loading.  Fills
// `payloads` from payload records and -- when `quarantined` is non-null --
// collects quarantine records keyed by replica id; a null `quarantined`
// (the unsupervised driver) refuses a journal that holds any, because
// silently re-running a quarantined replica could hang or poison the run.
// Returns the number of payload records loaded (the resume count).
std::size_t load_campaign_state(
    const CampaignOptions& options, std::size_t replicas,
    const CampaignPaths& paths,
    std::vector<std::optional<std::string>>& payloads,
    std::map<std::size_t, QuarantineRecord>* quarantined) {
  std::size_t resumed = 0;
  if (!fs::exists(paths.journal)) {
    atomic_write_file(paths.meta, options.meta);
    return resumed;
  }
  if (!options.resume) {
    throw std::runtime_error(
        "run_campaign: '" + options.directory +
        "' already holds a campaign journal; pass resume to continue it or "
        "use a fresh directory");
  }
  // The meta file is written atomically before the journal is created, so
  // a journal without meta means foreign or manually-damaged state.
  if (!fs::exists(paths.meta)) {
    throw std::runtime_error("run_campaign: journal present but '" +
                             paths.meta + "' is missing");
  }
  const std::string stored_meta = read_file(paths.meta);
  if (stored_meta != options.meta) {
    throw std::runtime_error(
        "run_campaign: configuration mismatch with the checkpoint "
        "directory\n  stored:  " +
        stored_meta + "\n  current: " + options.meta);
  }
  // A torn final record is the expected SIGKILL artifact: recover the
  // valid prefix and truncate so the writer appends after it.
  const JournalRecovery recovery = recover_journal(paths.journal);
  for (const std::string& record : recovery.records) {
    if (is_supervision_record(record)) {
      if (quarantined == nullptr) {
        throw std::runtime_error(
            "run_campaign: the journal holds supervision records (the "
            "campaign needed deadline/backpressure enforcement); resume with "
            "supervision enabled");
      }
      // Advisory history: decisions explain the journal, they never gate
      // which replicas run.
      continue;
    }
    if (is_quarantine_record(record)) {
      if (quarantined == nullptr) {
        throw std::runtime_error(
            "run_campaign: the journal holds quarantine records (a "
            "supervised campaign excluded poison replicas); resume with "
            "supervision enabled so they stay excluded");
      }
      QuarantineRecord entry = decode_quarantine_record(record);
      if (entry.replica >= replicas) {
        throw std::runtime_error(
            "run_campaign: journal quarantines replica " +
            std::to_string(entry.replica) + " but the campaign has only " +
            std::to_string(replicas));
      }
      (*quarantined)[entry.replica] = std::move(entry);
      continue;
    }
    const auto [replica, payload] = decode_campaign_record(record);
    if (replica >= replicas) {
      throw std::runtime_error(
          "run_campaign: journal names replica " + std::to_string(replica) +
          " but the campaign has only " + std::to_string(replicas));
    }
    if (!payloads[replica].has_value()) {
      ++resumed;
    }
    payloads[replica] = payload;  // duplicates: last record wins
  }
  if (quarantined != nullptr) {
    // A replica with both a payload and a quarantine record (a crash between
    // the two appends) counts as finished: the payload is the ground truth.
    for (auto it = quarantined->begin(); it != quarantined->end();) {
      it = payloads[it->first].has_value() ? quarantined->erase(it)
                                           : std::next(it);
    }
  }
  return resumed;
}

}  // namespace

std::string encode_campaign_record(std::size_t replica,
                                   std::string_view payload) {
  std::string record = std::to_string(replica);
  record.push_back(' ');
  record.append(payload);
  return record;
}

std::pair<std::size_t, std::string> decode_campaign_record(
    std::string_view record) {
  const std::size_t space = record.find(' ');
  if (space == std::string_view::npos || space == 0) {
    throw std::invalid_argument(
        "decode_campaign_record: missing replica id separator");
  }
  std::size_t replica = 0;
  const auto [end, errc] =
      std::from_chars(record.data(), record.data() + space, replica);
  if (errc != std::errc{} || end != record.data() + space) {
    throw std::invalid_argument("decode_campaign_record: bad replica id '" +
                                std::string(record.substr(0, space)) + "'");
  }
  return {replica, std::string(record.substr(space + 1))};
}

const char* to_string(CampaignStatus status) {
  switch (status) {
    case CampaignStatus::kComplete:
      return "complete";
    case CampaignStatus::kDegraded:
      return "degraded";
    case CampaignStatus::kFailed:
      return "failed";
    case CampaignStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string encode_quarantine_record(const QuarantineRecord& record) {
  std::string out(kQuarantinePrefix);
  out += std::to_string(record.replica);
  out.push_back(' ');
  out += to_string(record.failure);
  out.push_back(' ');
  out += std::to_string(record.attempts);
  if (!record.message.empty()) {
    out.push_back(' ');
    out += record.message;
  }
  return out;
}

bool is_quarantine_record(std::string_view record) {
  return record.starts_with(kQuarantinePrefix);
}

std::string encode_supervision_record(const SupervisionEvent& event) {
  std::string out(kSupervisionPrefix);
  out += event.to_json();
  return out;
}

bool is_supervision_record(std::string_view record) {
  return record.starts_with(kSupervisionPrefix);
}

std::string_view decode_supervision_record(std::string_view record) {
  if (!is_supervision_record(record)) {
    throw std::invalid_argument(
        "decode_supervision_record: missing 'supervision' prefix in '" +
        std::string(record) + "'");
  }
  return record.substr(kSupervisionPrefix.size());
}

QuarantineRecord decode_quarantine_record(std::string_view record) {
  if (!is_quarantine_record(record)) {
    throw std::invalid_argument(
        "decode_quarantine_record: missing 'quarantine' prefix in '" +
        std::string(record) + "'");
  }
  std::istringstream in{std::string(record.substr(kQuarantinePrefix.size()))};
  QuarantineRecord out;
  std::string failure;
  if (!(in >> out.replica >> failure >> out.attempts)) {
    throw std::invalid_argument("malformed quarantine record: '" +
                                std::string(record) + "'");
  }
  out.failure = parse_failure_class(failure);
  std::getline(in >> std::ws, out.message);
  return out;
}

CampaignResult run_campaign(
    std::size_t replicas,
    const std::function<std::optional<std::string>(std::size_t, Rng&)>& task,
    const CampaignOptions& options) {
  const CampaignPaths paths = campaign_paths(options);
  CampaignResult result;
  result.payloads.resize(replicas);
  result.resumed = load_campaign_state(options, replicas, paths,
                                       result.payloads, nullptr);

  std::vector<std::size_t> pending;
  pending.reserve(replicas - result.resumed);
  for (std::size_t replica = 0; replica < replicas; ++replica) {
    if (!result.payloads[replica].has_value()) {
      pending.push_back(replica);
    }
  }

  JournalWriter writer(paths.journal);
  std::mutex journal_mutex;
  std::uint64_t unflushed = 0;
  const std::uint64_t flush_every = std::max<std::uint64_t>(1, options.flush_every);

  if (options.mc.progress != nullptr) {
    options.mc.progress->total.store(replicas, std::memory_order_relaxed);
    options.mc.progress->resumed.store(result.resumed,
                                       std::memory_order_relaxed);
  }

  result.report = run_replica_set_isolated_erased(
      pending,
      [&](std::size_t replica, Rng& rng) {
        // Task exceptions fly through to the isolated driver's retry logic;
        // only a finished replica touches the journal.
        std::optional<std::string> payload = task(replica, rng);
        if (!payload.has_value()) {
          return;  // cancelled drain: not finished, re-runs on resume
        }
        const std::lock_guard<std::mutex> lock(journal_mutex);
        writer.append(encode_campaign_record(replica, *payload));
        if (++unflushed >= flush_every) {
          writer.flush();
          if (options.heartbeat != nullptr) {
            options.heartbeat->beat("flush");
          }
          unflushed = 0;
        }
        result.payloads[replica] = std::move(*payload);
        ++result.ran;
      },
      options.mc);
  writer.flush();
  if (options.heartbeat != nullptr) {
    options.heartbeat->beat("flush");
  }

  // The driver now reads cancellation straight off the token, so no
  // workaround for the fires-after-last-claim race is needed here; just
  // narrow it to "cancelled AND unfinished" (a complete campaign has
  // nothing left to resume).
  result.cancelled = result.report.cancelled && !result.complete();
  return result;
}

SupervisedCampaignResult run_supervised_campaign(
    std::size_t replicas, const SupervisedTask& task,
    const CampaignOptions& options, const SupervisorOptions& supervision) {
  const CampaignPaths paths = campaign_paths(options);
  SupervisedCampaignResult result;
  result.payloads.resize(replicas);
  std::map<std::size_t, QuarantineRecord> quarantined;
  result.resumed = load_campaign_state(options, replicas, paths,
                                       result.payloads, &quarantined);

  // The poison-seed dodge: re-admit journal-quarantined replicas, but start
  // each one at the attempt index after its record consumed, so the retry
  // draws fresh retry_seed streams instead of replaying the poisoned ones.
  std::map<std::size_t, unsigned> dodge_base;
  if (options.retry_quarantined) {
    for (const auto& [replica, record] : quarantined) {
      dodge_base[replica] = record.attempts;
    }
    quarantined.clear();
  }

  // Pending = not journaled AND not quarantined: the supervised resume's
  // whole point is that poison replicas stay excluded.
  std::vector<std::size_t> pending;
  for (std::size_t replica = 0; replica < replicas; ++replica) {
    if (!result.payloads[replica].has_value() &&
        quarantined.find(replica) == quarantined.end()) {
      pending.push_back(replica);
    }
  }

  JournalWriter writer(paths.journal);
  std::mutex journal_mutex;  // the flush cadence and the result slots
  std::uint64_t unflushed = 0;
  const std::uint64_t flush_every =
      std::max<std::uint64_t>(1, options.flush_every);
  // Group commit: a caller whose flush led the fsync beats the heartbeat,
  // so there is one "flush" beat per fsync, not one per record.
  const auto commit = [&] {
    if (writer.flush() && options.heartbeat != nullptr) {
      options.heartbeat->beat("flush");
    }
  };

  if (supervision.progress != nullptr) {
    supervision.progress->total.store(replicas, std::memory_order_relaxed);
    // Journal-quarantined replicas count as "resumed" work: they are done
    // in the only sense that matters for progress -- never run again.
    supervision.progress->resumed.store(result.resumed + quarantined.size(),
                                        std::memory_order_relaxed);
  }

  // Persisted calibration: the meta check above keys calibration.journal to
  // this exact configuration, so a resume re-arms its learned deadline
  // before the first replica runs.  The observer writes samples through
  // (it runs under the executor's lock); the log is never fsynced, because
  // calibration is never a correctness input (adaptive/calibration.hpp).
  std::optional<CalibrationLog> calibration;
  CompletionEstimator* const estimator = supervision.estimator;
  if (estimator != nullptr) {
    calibration.emplace(options.directory, crc32_of(options.meta));
    result.warmed = calibration->warm(*estimator);
    estimator->set_observer(
        [&calibration](double seconds) { calibration->append(seconds); });
  }
  // The estimator outlives this call; its observer must not.
  const struct ObserverReset {
    CompletionEstimator* estimator;
    ~ObserverReset() {
      if (estimator != nullptr) {
        estimator->set_observer(nullptr);
      }
    }
  } observer_reset{estimator};

  // Wrap the caller's event sink so quarantines hit the journal the moment
  // they are decided (flushed immediately: they are rare and load-bearing).
  // Events, like payloads, arrive outside the executor's lock.
  SupervisorOptions supervised = supervision;
  if (!dodge_base.empty()) {
    const std::function<unsigned(std::size_t)> inherited =
        supervision.first_attempt;
    supervised.first_attempt = [&dodge_base,
                                inherited](std::size_t replica) -> unsigned {
      const auto it = dodge_base.find(replica);
      if (it != dodge_base.end()) {
        return it->second;
      }
      return inherited ? inherited(replica) : 0u;
    };
  }
  supervised.on_event = [&](const SupervisionEvent& event) {
    if (event.kind == SupervisionEvent::Kind::kQuarantine) {
      writer.append(encode_quarantine_record(
          {event.replica, event.attempt, event.failure, event.detail}));
      commit();
    } else if (event.kind == SupervisionEvent::Kind::kDeadlineKill ||
               event.kind == SupervisionEvent::Kind::kDeadlineAdapt ||
               event.kind == SupervisionEvent::Kind::kBreakerOpen ||
               event.kind == SupervisionEvent::Kind::kBreakerClose ||
               event.kind == SupervisionEvent::Kind::kWorkerDismiss) {
      // Control-plane decisions go to the same journal so `divsim journal
      // --json` explains every kill.  Rare by construction (adapt events
      // carry a >10% hysteresis, dismissals are bounded by the pool size),
      // so the immediate flush is cheap.
      writer.append(encode_supervision_record(event));
      commit();
    }
    if (supervision.on_event) {
      supervision.on_event(event);
    }
  };

  // on_success runs outside the executor's lock and concurrently across
  // workers: the append and the cadence count are serialized here, the
  // fsync is not, so workers that flush together share it.
  result.report = run_supervised_set(
      pending, task,
      [&](std::size_t replica, std::string&& payload) {
        bool due = false;
        {
          const std::lock_guard<std::mutex> lock(journal_mutex);
          writer.append(encode_campaign_record(replica, payload));
          due = ++unflushed >= flush_every;
          if (due) {
            unflushed = 0;
          }
          result.payloads[replica] = std::move(payload);
          ++result.ran;
        }
        if (due) {
          commit();
        }
      },
      supervised);
  commit();

  for (const QuarantineRecord& record : result.report.quarantined) {
    quarantined[record.replica] = record;
  }
  result.quarantined.reserve(quarantined.size());
  for (auto& [replica, record] : quarantined) {
    result.quarantined.push_back(std::move(record));
  }

  const std::size_t have = result.resumed + result.ran;
  const bool all_accounted =
      have + result.quarantined.size() == replicas;
  const double fraction =
      replicas == 0
          ? 1.0
          : static_cast<double>(have) / static_cast<double>(replicas);
  if (!all_accounted) {
    // Unfinished work remains; the supervisor only leaves work unfinished
    // when draining on operator cancel.
    result.status = CampaignStatus::kCancelled;
  } else if (result.quarantined.empty()) {
    result.status = CampaignStatus::kComplete;
  } else if (fraction >= supervision.min_success_fraction) {
    result.status = CampaignStatus::kDegraded;
  } else {
    result.status = CampaignStatus::kFailed;
  }
  return result;
}

}  // namespace divlib
