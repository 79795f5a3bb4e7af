#include "queue/queue_records.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace divlib {
namespace {

const char* kind_name(QueueRecord::Kind kind) {
  switch (kind) {
    case QueueRecord::Kind::kSubmit:
      return "submit";
    case QueueRecord::Kind::kLease:
      return "lease";
    case QueueRecord::Kind::kRenew:
      return "renew";
    case QueueRecord::Kind::kRunning:
      return "running";
    case QueueRecord::Kind::kRequeue:
      return "requeue";
    case QueueRecord::Kind::kFinish:
      return "finish";
    case QueueRecord::Kind::kCancel:
      return "cancel";
  }
  return "?";
}

[[noreturn]] void malformed(std::string_view line, const char* why) {
  throw std::invalid_argument("queue record: " + std::string(why) + ": '" +
                              std::string(line) + "'");
}

// Reads the rest of the stream (after skipping one separating space) as the
// free-form trailing field.  Empty is legal.
std::string rest_of(std::istringstream& in) {
  std::string rest;
  std::getline(in, rest);
  if (!rest.empty() && rest.front() == ' ') {
    rest.erase(0, 1);
  }
  return rest;
}

[[noreturn]] void illegal(std::size_t index, const QueueRecord& record,
                          const std::string& why) {
  throw std::runtime_error("queue journal record " + std::to_string(index) +
                           " (" + kind_name(record.kind) + " campaign " +
                           std::to_string(record.campaign) + "): " + why);
}

}  // namespace

const char* to_string(CampaignPhase phase) {
  switch (phase) {
    case CampaignPhase::kQueued:
      return "queued";
    case CampaignPhase::kLeased:
      return "leased";
    case CampaignPhase::kRunning:
      return "running";
    case CampaignPhase::kComplete:
      return "complete";
    case CampaignPhase::kDegraded:
      return "degraded";
    case CampaignPhase::kFailed:
      return "failed";
    case CampaignPhase::kCancelled:
      return "cancelled";
  }
  return "?";
}

CampaignPhase parse_campaign_phase(std::string_view name) {
  for (const CampaignPhase phase :
       {CampaignPhase::kQueued, CampaignPhase::kLeased, CampaignPhase::kRunning,
        CampaignPhase::kComplete, CampaignPhase::kDegraded,
        CampaignPhase::kFailed, CampaignPhase::kCancelled}) {
    if (name == to_string(phase)) {
      return phase;
    }
  }
  throw std::invalid_argument("unknown campaign phase '" + std::string(name) +
                              "'");
}

bool phase_is_terminal(CampaignPhase phase) {
  switch (phase) {
    case CampaignPhase::kComplete:
    case CampaignPhase::kDegraded:
    case CampaignPhase::kFailed:
    case CampaignPhase::kCancelled:
      return true;
    case CampaignPhase::kQueued:
    case CampaignPhase::kLeased:
    case CampaignPhase::kRunning:
      return false;
  }
  return false;
}

std::string encode_queue_record(const QueueRecord& record) {
  if (record.text.find('\n') != std::string::npos) {
    throw std::invalid_argument(
        "queue record text must not contain a newline");
  }
  std::ostringstream out;
  out << kind_name(record.kind) << ' ' << record.campaign;
  switch (record.kind) {
    case QueueRecord::Kind::kSubmit: {
      char fingerprint[9];
      std::snprintf(fingerprint, sizeof(fingerprint), "%08x",
                    record.fingerprint);
      out << ' ' << fingerprint << ' ' << record.text;
      break;
    }
    case QueueRecord::Kind::kLease:
    case QueueRecord::Kind::kRenew:
      out << ' ' << record.lease << ' ' << record.deadline_ms;
      break;
    case QueueRecord::Kind::kRunning:
      out << ' ' << record.lease;
      break;
    case QueueRecord::Kind::kRequeue:
      out << ' ' << record.lease << ' ' << record.text;
      break;
    case QueueRecord::Kind::kFinish:
      out << ' ' << record.lease << ' ' << to_string(record.phase) << ' '
          << record.text;
      break;
    case QueueRecord::Kind::kCancel:
      out << ' ' << record.text;
      break;
  }
  return out.str();
}

QueueRecord decode_queue_record(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::string kind;
  QueueRecord record;
  if (!(in >> kind >> record.campaign)) {
    malformed(line, "missing kind or campaign id");
  }
  if (kind == "submit") {
    record.kind = QueueRecord::Kind::kSubmit;
    std::string fingerprint;
    if (!(in >> fingerprint) || fingerprint.size() != 8) {
      malformed(line, "bad fingerprint");
    }
    record.fingerprint = static_cast<std::uint32_t>(
        std::stoul(fingerprint, nullptr, 16));
    record.text = rest_of(in);
  } else if (kind == "lease" || kind == "renew") {
    record.kind = kind == "lease" ? QueueRecord::Kind::kLease
                                  : QueueRecord::Kind::kRenew;
    if (!(in >> record.lease >> record.deadline_ms)) {
      malformed(line, "bad lease or deadline");
    }
  } else if (kind == "running") {
    record.kind = QueueRecord::Kind::kRunning;
    if (!(in >> record.lease)) {
      malformed(line, "bad lease");
    }
  } else if (kind == "requeue") {
    record.kind = QueueRecord::Kind::kRequeue;
    if (!(in >> record.lease)) {
      malformed(line, "bad lease");
    }
    record.text = rest_of(in);
  } else if (kind == "finish") {
    record.kind = QueueRecord::Kind::kFinish;
    std::string phase;
    if (!(in >> record.lease >> phase)) {
      malformed(line, "bad lease or phase");
    }
    record.phase = parse_campaign_phase(phase);
    if (!phase_is_terminal(record.phase)) {
      malformed(line, "finish phase must be terminal");
    }
    record.text = rest_of(in);
  } else if (kind == "cancel") {
    record.kind = QueueRecord::Kind::kCancel;
    record.text = rest_of(in);
  } else {
    malformed(line, "unknown kind");
  }
  return record;
}

const CampaignEntry* QueueView::find(std::uint64_t id) const {
  const auto it = std::lower_bound(
      campaigns.begin(), campaigns.end(), id,
      [](const CampaignEntry& entry, std::uint64_t key) {
        return entry.id < key;
      });
  return it != campaigns.end() && it->id == id ? &*it : nullptr;
}

std::size_t QueueView::count(CampaignPhase phase) const {
  std::size_t total = 0;
  for (const CampaignEntry& entry : campaigns) {
    if (entry.phase == phase) {
      ++total;
    }
  }
  return total;
}

const CampaignEntry* QueueView::oldest_queued() const {
  for (const CampaignEntry& entry : campaigns) {
    if (entry.phase == CampaignPhase::kQueued) {
      return &entry;
    }
  }
  return nullptr;
}

bool QueueView::has_live_work() const {
  for (const CampaignEntry& entry : campaigns) {
    if (!phase_is_terminal(entry.phase)) {
      return true;
    }
  }
  return false;
}

QueueView replay_queue(const std::vector<std::string>& records) {
  QueueView view;
  fold_queue_records(view, records, 0);
  return view;
}

void fold_queue_records(QueueView& view,
                        const std::vector<std::string>& records,
                        std::size_t first_index) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t index = first_index + i;
    const QueueRecord record = decode_queue_record(records[i]);
    if (record.kind == QueueRecord::Kind::kSubmit) {
      if (view.find(record.campaign) != nullptr) {
        illegal(index, record, "duplicate campaign id");
      }
      if (record.campaign < view.next_campaign_id) {
        illegal(index, record, "campaign id is not monotonic");
      }
      CampaignEntry entry;
      entry.id = record.campaign;
      entry.fingerprint = record.fingerprint;
      entry.config = record.text;
      entry.phase = CampaignPhase::kQueued;
      view.campaigns.push_back(std::move(entry));
      view.next_campaign_id = record.campaign + 1;
      continue;
    }
    // Every other kind targets an existing campaign.
    auto it = std::lower_bound(
        view.campaigns.begin(), view.campaigns.end(), record.campaign,
        [](const CampaignEntry& entry, std::uint64_t key) {
          return entry.id < key;
        });
    if (it == view.campaigns.end() || it->id != record.campaign) {
      illegal(index, record, "campaign was never submitted");
    }
    CampaignEntry& entry = *it;
    switch (record.kind) {
      case QueueRecord::Kind::kSubmit:
        break;  // handled above
      case QueueRecord::Kind::kLease:
        if (entry.phase != CampaignPhase::kQueued) {
          illegal(index, record,
                  "lease requires Queued, campaign is " +
                      std::string(to_string(entry.phase)));
        }
        if (record.lease < view.next_lease_id) {
          illegal(index, record, "lease id is not monotonic");
        }
        entry.phase = CampaignPhase::kLeased;
        entry.lease = record.lease;
        entry.lease_deadline_ms = record.deadline_ms;
        view.next_lease_id = record.lease + 1;
        break;
      case QueueRecord::Kind::kRenew:
        if (entry.phase != CampaignPhase::kLeased &&
            entry.phase != CampaignPhase::kRunning) {
          illegal(index, record, "renew requires Leased or Running");
        }
        if (entry.lease != record.lease) {
          illegal(index, record, "renew with a stale lease");
        }
        entry.lease_deadline_ms = record.deadline_ms;
        break;
      case QueueRecord::Kind::kRunning:
        if (entry.phase != CampaignPhase::kLeased) {
          illegal(index, record, "running requires Leased");
        }
        if (entry.lease != record.lease) {
          illegal(index, record, "running with a stale lease");
        }
        entry.phase = CampaignPhase::kRunning;
        break;
      case QueueRecord::Kind::kRequeue:
        if (entry.phase != CampaignPhase::kLeased &&
            entry.phase != CampaignPhase::kRunning) {
          illegal(index, record, "requeue requires Leased or Running");
        }
        if (entry.lease != record.lease) {
          illegal(index, record, "requeue with a stale lease");
        }
        entry.phase = CampaignPhase::kQueued;
        entry.lease = 0;
        entry.lease_deadline_ms = 0;
        entry.requeues += 1;
        entry.note = record.text;
        break;
      case QueueRecord::Kind::kFinish:
        if (entry.phase != CampaignPhase::kLeased &&
            entry.phase != CampaignPhase::kRunning) {
          illegal(index, record, "finish requires Leased or Running");
        }
        if (entry.lease != record.lease) {
          illegal(index, record, "finish with a stale lease");
        }
        entry.phase = record.phase;
        entry.note = record.text;
        break;
      case QueueRecord::Kind::kCancel:
        if (entry.phase != CampaignPhase::kQueued) {
          illegal(index, record, "cancel requires Queued");
        }
        entry.phase = CampaignPhase::kCancelled;
        entry.note = record.text;
        break;
    }
  }
}

}  // namespace divlib
