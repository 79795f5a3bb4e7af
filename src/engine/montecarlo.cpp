#include "engine/montecarlo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

namespace divlib {

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

unsigned resolve_thread_count(const MonteCarloOptions& options) {
  return resolve_thread_count(options.num_threads);
}

void run_replicas_erased(std::size_t replicas,
                         const std::function<void(std::size_t, Rng&)>& task,
                         const MonteCarloOptions& options) {
  if (replicas == 0) {
    return;
  }
  const unsigned requested = resolve_thread_count(options);
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(requested, replicas));

  std::atomic<std::size_t> next{0};
  // Deterministic failure propagation: replicas are claimed in increasing
  // index order and every claimed task runs to completion before the pool is
  // joined, so the lowest-index error is always observed and wins -- the
  // rethrown exception is bit-identical across thread schedules.
  //
  // The stop signal is a SHARED flag, not a per-worker return: a worker that
  // records an error used to exit its own loop while its siblings kept
  // claiming every remaining replica, so one thread stopped after the first
  // failure while N threads ran the whole batch -- abort semantics that
  // depended on the worker count.  With the flag, no worker claims new work
  // after any error is recorded, whatever the thread count (see the error
  // contract in montecarlo.hpp).
  std::atomic<bool> failed{false};
  std::exception_ptr lowest_error;
  std::size_t lowest_error_replica = 0;
  std::mutex error_mutex;

  const auto worker_loop = [&]() {
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t replica = next.fetch_add(1, std::memory_order_relaxed);
      if (replica >= replicas) {
        return;
      }
      try {
        Rng rng(Rng::substream_seed(options.master_seed, replica));
        task(replica, rng);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!lowest_error || replica < lowest_error_replica) {
            lowest_error = std::current_exception();
            lowest_error_replica = replica;
          }
        }
        failed.store(true, std::memory_order_release);
      }
    }
  };

  if (workers == 1) {
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      pool.emplace_back(worker_loop);
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }

  if (lowest_error) {
    std::rethrow_exception(lowest_error);
  }
}

SupervisorOptions supervision_off(const MonteCarloOptions& options) {
  SupervisorOptions off;
  off.master_seed = options.master_seed;
  off.num_threads = options.num_threads;
  off.max_attempts = options.max_attempts;
  off.cancel = options.cancel;
  off.progress = options.progress;
  off.backoff_base = std::chrono::milliseconds{0};
  off.classify = [](const std::exception&) { return FailureClass::kTransient; };
  return off;
}

BatchReport to_batch_report(const SupervisorReport& report) {
  BatchReport batch;
  batch.replicas = report.replicas;
  batch.attempted = report.succeeded + report.quarantined.size();
  batch.retries = report.retries;
  batch.errors.reserve(report.quarantined.size());
  for (const QuarantineRecord& record : report.quarantined) {
    batch.errors.push_back({record.replica, record.attempts, record.message});
  }
  batch.cancelled = report.cancelled;
  return batch;
}

BatchReport run_replica_set_isolated_erased(
    std::span<const std::size_t> replica_ids,
    const std::function<void(std::size_t, Rng&)>& task,
    const MonteCarloOptions& options) {
  return to_batch_report(run_supervised_set(
      replica_ids,
      [&task](std::size_t replica, Rng& rng,
              const CancelToken&) -> std::optional<std::string> {
        task(replica, rng);
        return std::string();
      },
      [](std::size_t, std::string&&) {}, supervision_off(options)));
}

BatchReport run_replicas_isolated_erased(
    std::size_t replicas, const std::function<void(std::size_t, Rng&)>& task,
    const MonteCarloOptions& options) {
  std::vector<std::size_t> ids(replicas);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return run_replica_set_isolated_erased(ids, task, options);
}

}  // namespace divlib
