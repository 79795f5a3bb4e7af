#include "queue/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace divlib {
namespace {

void note(const CoordinatorOptions& options, const std::string& line) {
  if (options.on_note) {
    options.on_note(line);
  }
}

bool cancelled(const CoordinatorOptions& options) {
  return options.cancel != nullptr && options.cancel->requested();
}

// Renews the lease every lease_ms / 3 until stopped.  The wait is on a
// condition variable, so the destructor's notify ends it at once and the
// campaign's verdict is journaled without waiting out a sleep.  A renewal
// that throws -- StaleLease after a long stall, or an I/O error on the
// queue journal -- simply ends the heartbeat: the campaign will be requeued
// at expiry, and the main loop's finish() reports the staleness.
class LeaseHeartbeat {
 public:
  LeaseHeartbeat(CampaignQueue& queue, std::uint64_t campaign,
                 std::uint64_t lease)
      : thread_([this, &queue, campaign, lease] {
          const auto interval =
              std::chrono::milliseconds(queue.options().lease_ms / 3);
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stop_cv_.wait_for(lock, interval,
                                    [this] { return stopping_; })) {
            lock.unlock();
            try {
              queue.renew(campaign, lease);
            } catch (const std::exception&) {
              return;
            }
            lock.lock();
          }
        }) {}

  LeaseHeartbeat(const LeaseHeartbeat&) = delete;
  LeaseHeartbeat& operator=(const LeaseHeartbeat&) = delete;

  ~LeaseHeartbeat() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;  // last: the thread reads the members above
};

}  // namespace

CoordinatorReport run_coordinator(CampaignQueue& queue,
                                  const CampaignRunner& runner,
                                  const CoordinatorOptions& options) {
  CoordinatorReport report;
  while (!cancelled(options)) {
    if (options.max_campaigns != 0 &&
        report.leased >= options.max_campaigns) {
      break;
    }
    std::optional<CampaignEntry> leased = queue.lease_next();
    if (!leased) {
      // Nothing Queued.  Live leases held elsewhere (or by a dead
      // coordinator, pre-expiry) may still turn into work: wait them out.
      if (!options.wait_for_leases ||
          !queue.snapshot().view.has_live_work()) {
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::int64_t>(options.poll_ms,
                                                           10)));
      continue;
    }
    ++report.leased;
    note(options, "leased campaign " + std::to_string(leased->id) +
                      " (lease " + std::to_string(leased->lease) + ", " +
                      std::to_string(leased->requeues) + " prior requeues)");
    CampaignPhase verdict;
    std::string detail;
    try {
      queue.mark_running(leased->id, leased->lease);
      LeaseHeartbeat heartbeat(queue, leased->id, leased->lease);
      verdict = runner(*leased, queue.campaign_directory(leased->id));
    } catch (const StaleLease& stale) {
      ++report.lost;
      note(options, stale.what());
      continue;
    } catch (const std::exception& error) {
      verdict = CampaignPhase::kFailed;
      detail = error.what();
    }
    try {
      if (verdict == CampaignPhase::kCancelled) {
        // Operator cancel: the checkpoint holds the finished replicas, the
        // queue keeps the campaign for a future coordinator.
        queue.release(leased->id, leased->lease,
                      "operator cancel; checkpoint resumable");
        ++report.released;
        note(options,
             "released campaign " + std::to_string(leased->id) + " (cancel)");
        // A cancelled verdict ends the dispatch loop even if the token has
        // not reached us yet: re-leasing the campaign we just released would
        // spin on work the operator asked to stop.
        report.cancelled = true;
        return report;
      } else {
        if (detail.empty()) {
          detail = "coordinator verdict";
        }
        queue.finish(leased->id, leased->lease, verdict, detail);
        switch (verdict) {
          case CampaignPhase::kComplete:
            ++report.completed;
            break;
          case CampaignPhase::kDegraded:
            ++report.degraded;
            break;
          default:
            ++report.failed;
            break;
        }
        note(options, "campaign " + std::to_string(leased->id) + " " +
                          to_string(verdict));
      }
    } catch (const StaleLease& stale) {
      // We stalled past our deadline and someone else owns the campaign
      // now; their verdict stands, ours is discarded.
      ++report.lost;
      note(options, stale.what());
    }
  }
  report.cancelled = cancelled(options);
  return report;
}

}  // namespace divlib
