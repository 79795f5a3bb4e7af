#include "engine/montecarlo.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
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

namespace {

// Runs worker_loop on `workers` threads (or inline when workers == 1).
void dispatch(unsigned workers, const std::function<void()>& worker_loop) {
  if (workers == 1) {
    worker_loop();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    pool.emplace_back(worker_loop);
  }
  for (auto& thread : pool) {
    thread.join();
  }
}

}  // namespace

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

  dispatch(workers, worker_loop);

  if (lowest_error) {
    std::rethrow_exception(lowest_error);
  }
}

BatchReport run_replica_set_isolated_erased(
    std::span<const std::size_t> replica_ids,
    const std::function<void(std::size_t, Rng&)>& task,
    const MonteCarloOptions& options) {
  BatchReport report;
  report.replicas = replica_ids.size();
  if (replica_ids.empty()) {
    return report;
  }
  const unsigned requested = resolve_thread_count(options);
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(requested, replica_ids.size()));
  const unsigned max_attempts = std::max(1u, options.max_attempts);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> attempted{0};
  std::atomic<std::uint64_t> retries{0};
  std::vector<ReplicaError> errors;
  std::mutex errors_mutex;

  const auto worker_loop = [&]() {
    while (true) {
      // Cooperative drain: stop claiming work once the token fires.  Claimed
      // replicas always run to a verdict, so every id is either fully
      // attempted or untouched -- the granularity a resume can reason about.
      if (options.cancel != nullptr && options.cancel->requested()) {
        return;
      }
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= replica_ids.size()) {
        return;
      }
      const std::size_t replica = replica_ids[slot];
      std::string last_message = "unknown exception";
      bool succeeded = false;
      unsigned consumed = 0;
      for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          retries.fetch_add(1, std::memory_order_relaxed);
          if (options.progress != nullptr) {
            options.progress->retried.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++consumed;
        try {
          Rng rng(Rng::retry_seed(options.master_seed, replica, attempt));
          task(replica, rng);
          succeeded = true;
          break;
        } catch (const std::exception& error) {
          last_message = error.what();
        } catch (...) {
          last_message = "unknown exception";
        }
      }
      attempted.fetch_add(1, std::memory_order_relaxed);
      if (options.progress != nullptr) {
        options.progress->completed.fetch_add(1, std::memory_order_relaxed);
      }
      if (!succeeded) {
        if (options.progress != nullptr) {
          options.progress->errored.fetch_add(1, std::memory_order_relaxed);
        }
        const std::lock_guard<std::mutex> lock(errors_mutex);
        // `consumed`, not `max_attempts`: they agree here today, but the
        // report's contract is attempts that actually ran.
        errors.push_back({replica, consumed, last_message});
      }
    }
  };

  dispatch(workers, worker_loop);

  std::sort(errors.begin(), errors.end(),
            [](const ReplicaError& a, const ReplicaError& b) {
              return a.replica < b.replica;
            });
  report.attempted = attempted.load();
  report.retries = retries.load();
  report.errors = std::move(errors);
  // Read the token directly: inferring cancellation from attempted <
  // replicas misreports a token that fires after the last slot is claimed
  // (every replica still drains, yet the user DID cancel).
  report.cancelled = options.cancel != nullptr && options.cancel->requested();
  return report;
}

BatchReport run_replicas_isolated_erased(
    std::size_t replicas, const std::function<void(std::size_t, Rng&)>& task,
    const MonteCarloOptions& options) {
  std::vector<std::size_t> ids(replicas);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return run_replica_set_isolated_erased(ids, task, options);
}

}  // namespace divlib
