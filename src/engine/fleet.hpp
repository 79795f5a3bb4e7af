// Process-isolated worker fleet: the crash barrier under Isolation::kProcess.
//
// The thread-pool supervisor (engine/supervisor) retries exceptions, but a
// replica that SIGSEGVs, smashes its stack, or aborts takes the whole
// campaign with it -- no C++ mechanism catches a fatal signal usefully.  The
// fleet moves each attempt behind a process boundary: the parent forks one
// worker per pool slot and speaks a length-prefixed, CRC-framed pipe
// protocol (io/wire) to it,
//
//   parent -> worker : "work <replica> <attempt>" | "quit"
//   worker -> parent : "beat"
//                    | "ok <replica> <attempt> <payload bytes...>"
//                    | "err <replica> <attempt> <class> <message...>"
//                    | "drain <replica> <attempt> <reason>"
//
// so a dying worker costs exactly its in-flight attempt.  Workers emit
// heartbeats on the obs/Heartbeat cadence; the parent folds beats, frames,
// timer ticks, and waitpid into a per-worker LivenessTracker
// (Unknown -> Alive -> Suspect -> Dead) and publishes every transition as a
// SupervisionEvent plus a fleet_* counter.
//
// Crash reclassification bridges process death into PR 5's failure taxonomy:
// a first worker death on a replica is kTransient (re-queued through the
// usual jittered backoff on a fresh retry_seed stream); the Nth death on the
// SAME replica (FleetOptions::max_worker_deaths_per_replica) is
// kDeterministic -- a reproducible crash -- and quarantines the replica.  A
// replacement worker is forked whenever live workers undershoot the
// remaining work.
//
// Deadlines are cooperative-then-forceful: the parent SIGUSR1s the worker
// (its handler fires the attempt's CancelToken with kDeadline, draining at a
// step boundary); a worker that keeps beating but never drains is SIGKILLed
// after a dead_after grace.  Operator cancel is SIGTERM (kUser), leaving
// replicas unfinished for resume, exactly like thread mode; the deadline
// ladder still runs after it, so a worker that ignores the drain cannot
// hold the campaign open.
//
// Every policy decision -- budget, backoff, taxonomy and the crash
// reclassification above, quarantine, deadlines, the breaker's width cap --
// comes from the same ReplicaScheduler (engine/scheduler) the thread
// executor uses; this file only forks, frames, signals, polls and reaps.
//
// Determinism: attempts run the same (master_seed, replica, attempt) streams
// as thread mode, so healthy replicas produce bit-identical payload bytes
// under either isolation.  Straggler speculation is a thread-mode policy and
// is ignored here -- the deadline + liveness machinery covers hung workers.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "engine/supervisor.hpp"

namespace divlib {

// Process-isolation counterpart of run_supervised_set; same contract, same
// report shape (plus the worker_* fleet fields).  Called automatically by
// run_supervised_set when options.isolation == Isolation::kProcess.  The
// calling thread becomes the fleet monitor until the batch drains; worker
// processes never return from this call (they _exit).
SupervisorReport run_fleet_set(
    std::span<const std::size_t> replica_ids, const SupervisedTask& task,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    const SupervisorOptions& options);

}  // namespace divlib
