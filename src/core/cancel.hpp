// Cooperative cancellation for long runs and campaigns.
//
// A CancelToken is a lock-free flag that a signal handler (or another
// thread) sets and the hot loops poll: the step and jump engines check it
// once per scheduled iteration and drain at a step boundary, and the
// Monte-Carlo drivers stop claiming new replicas.  The result is a graceful
// drain -- in-flight replicas stop cleanly, the campaign journal is flushed,
// and the process can print a resume hint -- instead of work lost to an
// abrupt exit.
//
// The token also carries WHY it fired (CancelReason), because the drained
// party's next move depends on it: a user interrupt leaves the replica
// unfinished for a later resume, a supervisor deadline converts the drain
// into a retryable failure (RunStatus::kDeadline), and a superseded
// speculative twin is simply discarded.  The first request() wins; later
// requests with a different reason are ignored, so concurrent
// deadline-vs-user races resolve deterministically to whoever fired first.
//
// request() is async-signal-safe (one CAS on a lock-free atomic), so
// SIGINT/SIGTERM handlers may call it directly on global().
#pragma once

#include <atomic>
#include <stdexcept>

namespace divlib {

// Why a CancelToken fired.  kNone is the unfired state, never a valid
// argument to request().
enum class CancelReason : unsigned char {
  kNone = 0,
  kUser = 1,        // operator interrupt (SIGINT/SIGTERM) or explicit cancel
  kDeadline = 2,    // supervisor wall-clock deadline expired
  kSuperseded = 3,  // a speculative duplicate already won; result is unwanted
};

const char* to_string(CancelReason reason);

class CancelToken {
 public:
  // Fires the token.  First reason wins: once fired, subsequent requests
  // (any reason) are no-ops, so readers observe one stable reason.
  void request(CancelReason reason = CancelReason::kUser) noexcept {
    unsigned char expected = 0;
    const auto wanted = static_cast<unsigned char>(
        reason == CancelReason::kNone ? CancelReason::kUser : reason);
    state_.compare_exchange_strong(expected, wanted,
                                   std::memory_order_relaxed);
  }
  bool requested() const noexcept {
    return state_.load(std::memory_order_relaxed) != 0;
  }
  // kNone until the token fires, then the winning request's reason.
  CancelReason reason() const noexcept {
    return static_cast<CancelReason>(state_.load(std::memory_order_relaxed));
  }
  // Clears the flag (tests and back-to-back campaigns in one process).
  void reset() noexcept { state_.store(0, std::memory_order_relaxed); }

  // The process-wide token signal handlers target.  Library code never
  // consults it implicitly; callers opt in by passing &CancelToken::global()
  // through RunOptions / MonteCarloOptions.
  static CancelToken& global() noexcept;

 private:
  std::atomic<unsigned char> state_{0};
};

static_assert(std::atomic<unsigned char>::is_always_lock_free,
              "CancelToken::request must be async-signal-safe");

// Thrown by set-up work that polls a token but has no step boundary to
// drain at -- the random graph generators -- when the token fires: there
// is no partial result to keep.
class OperationCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The set-up work's poll: throws OperationCancelled(`what`) once `cancel`
// (when given) has fired.  Inline, so div_graph polls without linking
// div_core.
inline void throw_if_cancelled(const CancelToken* cancel, const char* what) {
  if (cancel != nullptr && cancel->requested()) {
    throw OperationCancelled(what);
  }
}

}  // namespace divlib
