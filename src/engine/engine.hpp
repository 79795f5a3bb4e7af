// The asynchronous run loop: advances a Process until a stopping rule or a
// hard step cap is reached, optionally recording a Trace.
//
// run() calls process.begin_run() first, so stateful decorators
// (FaultyProcess) re-anchor per-run bookkeeping, and classifies the outcome
// via RunResult::status: kCompleted (stopping rule satisfied), kCapped (step
// budget exhausted -- the watchdog), kCancelled (a RunOptions::cancel token
// fired and the loop drained at a step boundary), kDeadline (same drain, but
// the token carried CancelReason::kDeadline -- a supervisor wall-clock
// budget), or kFaulted (the process threw; run_guarded() only).  run() propagates exceptions; run_guarded()
// converts them into a structured kFaulted result so Monte-Carlo batches
// survive individual replica failures; both map cancellation identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/cancel.hpp"
#include "core/opinion_state.hpp"
#include "core/process.hpp"
#include "engine/stop_condition.hpp"
#include "engine/trace.hpp"
#include "obs/run_metrics.hpp"
#include "rng/rng.hpp"

namespace divlib {

struct RunOptions {
  StopKind stop = StopKind::kConsensus;
  // Hard cap; a run that hits it reports status == kCapped.
  std::uint64_t max_steps = 100'000'000;
  // Trace sampling stride; 0 disables tracing.
  std::uint64_t trace_stride = 0;
  // Optional cooperative-cancellation token, polled once per scheduled
  // iteration (a relaxed atomic load -- negligible against a step).  When it
  // fires the loop drains at the current step boundary and reports
  // status == kCancelled with the state exactly as the last step left it,
  // so a checkpoint taken there resumes bit-identically.
  const CancelToken* cancel = nullptr;
  // Optional trajectory telemetry; null disables instrumentation entirely
  // (the engines never touch it then).  See obs/run_metrics.hpp for the
  // determinism contract.  The naive engine fills scheduled_steps, a
  // single naive timeline entry, and the wall-clock split; the jump engine
  // additionally records mode switches, activity samples, skipped lazy
  // steps, and tracker rebuilds.  The lane kernels (engine/batch_engine)
  // fill it with this same content.
  RunMetrics* metrics = nullptr;
};

enum class RunStatus {
  kCompleted,  // stopping rule satisfied before the cap
  kCapped,     // step budget exhausted (watchdog)
  kFaulted,    // the process threw mid-run (run_guarded only)
  kCancelled,  // RunOptions::cancel fired; drained at a step boundary
  kDeadline,   // the token fired with CancelReason::kDeadline: the
               // supervisor's wall-clock budget expired, distinct from the
               // step-budget kCapped and from an operator's kCancelled
};

const char* to_string(RunStatus status);

// Maps a fired token to the status the drained run reports: kDeadline when
// a supervisor deadline expired, kCancelled for every other reason.  Shared
// by the step and jump engines so both classify identically.
RunStatus drained_status(const CancelToken& token);

struct RunResult {
  RunStatus status = RunStatus::kCapped;
  bool completed = false;       // == (status == kCompleted); kept for callers
  std::uint64_t steps = 0;      // steps actually executed
  Opinion min_active = 0;       // state at stop
  Opinion max_active = 0;
  int num_active = 0;
  std::int64_t final_sum = 0;   // S at stop
  double final_z = 0.0;         // Z at stop
  // Consensus value when one opinion remains at stop, else nullopt.
  std::optional<Opinion> winner;
  // what() of the exception when status == kFaulted, else empty.
  std::string fault;
  Trace trace;
};

// Runs `process` on `state` until `options.stop` holds or the cap is hit.
// The state is left at its stopping configuration (useful for phased runs:
// first to two-adjacent, then on to consensus).  Exceptions thrown by the
// process propagate.
RunResult run(Process& process, OpinionState& state, Rng& rng,
              const RunOptions& options);

// Like run(), but never throws on process failure: a throwing step yields
// status == kFaulted with the exception text in `fault`, the steps executed
// so far, and aggregates of the state as the failure left it.
RunResult run_guarded(Process& process, OpinionState& state, Rng& rng,
                      const RunOptions& options);

}  // namespace divlib
