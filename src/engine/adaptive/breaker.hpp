// Fleet backpressure circuit breaker.
//
// A worker-death or transient-failure spike (bad host, OOM storm, a graph
// regime that crashes a buggy kernel) turns the fleet's retry machinery
// into a fork storm: every death respawns a worker and requeues an attempt
// with per-attempt backoff that knows nothing about its siblings.  The
// breaker watches the global failure stream and, past a threshold inside a
// sliding window, trips Open: in-flight width is capped to a fraction of
// the configured worker target and every retry's backoff is widened by a
// global multiplier.  After a cooldown with no fresh failures it probes via
// HalfOpen -- one quiet success closes it again, one failure re-opens it.
//
//            failures >= threshold in window
//   Closed ----------------------------------> Open
//     ^                                          | cooldown elapses
//     |  success                                 v
//     +------------------------------------- HalfOpen
//                                                | failure
//                                                +-----> Open (again)
//
// Like engine/liveness, the machine is pure: callers feed explicit
// timestamps to record_failure/record_success/tick and receive the
// transitions that occurred, which makes every path unit-testable without
// sleeping.  Not thread-safe; its owner, the ReplicaScheduler
// (engine/scheduler), is only ever called serialized.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <vector>

namespace divlib {

enum class BreakerState {
  kClosed,    // healthy: full width, normal backoff
  kOpen,      // failure spike: capped width, widened backoff
  kHalfOpen,  // cooldown expired: probing at full width
};

const char* to_string(BreakerState state);

struct BreakerOptions {
  // Failures inside `window` needed to trip Closed -> Open.
  std::size_t failure_threshold = 4;
  std::chrono::milliseconds window{2000};
  // How long Open holds before probing; further failures while Open push
  // the probe out again.
  std::chrono::milliseconds cooldown{3000};
  // Retry-backoff widening while Open.
  double backoff_multiplier = 4.0;
  // In-flight width while Open, as a fraction of the full worker target
  // (floored at one so progress never fully stops).
  double width_fraction = 0.5;
};

struct BreakerTransition {
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  // Failures inside the window when the transition fired (diagnostic).
  std::size_t failures_in_window = 0;
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  CircuitBreaker(const BreakerOptions& options, Clock::time_point start);

  // Feed one failure (transient/resource classification or a worker death)
  // or one success; tick() drives the Open -> HalfOpen cooldown edge.  Each
  // returns the transitions that occurred (0 or 1 today; a vector so the
  // shape matches LivenessTracker and survives richer machines).
  std::vector<BreakerTransition> record_failure(Clock::time_point now);
  std::vector<BreakerTransition> record_success(Clock::time_point now);
  std::vector<BreakerTransition> tick(Clock::time_point now);

  BreakerState state() const { return state_; }
  std::size_t failures_in_window() const { return failures_.size(); }

  // Global backoff widening: options.backoff_multiplier while Open,
  // 1.0 otherwise (HalfOpen probes at normal speed).
  double backoff_multiplier() const;

  // In-flight width cap: floor(full_width * width_fraction), >= 1, while
  // Open; full_width otherwise.
  std::size_t cap(std::size_t full_width) const;

  const BreakerOptions& options() const { return options_; }

 private:
  Clock::time_point clamp(Clock::time_point now);
  void prune(Clock::time_point now);
  std::vector<BreakerTransition> transition(BreakerState to);

  BreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  std::deque<Clock::time_point> failures_;  // inside the sliding window
  Clock::time_point last_seen_;             // monotonicity clamp
  Clock::time_point probe_at_;              // Open -> HalfOpen edge
};

}  // namespace divlib
