// Plain-DIV execution over an OpinionPlane: lock-step lanes for the step
// engine, one lane for the jump engine.
//
// run_batch() advances every lane of a plane through the SCHEDULED discrete
// incremental voting process -- the same chain the scalar run() executes via
// DivProcess -- one step per lane per sweep, with everything the scalar loop
// pays per step (virtual Process dispatch, trace hook, out-of-line
// is_satisfied / select_pair / OpinionState::set calls) inlined away, and the
// B lanes' independent random memory accesses interleaved so the prefetcher
// and the load queue overlap their cache misses instead of serializing them
// replica by replica.
//
// Lane-determinism contract: lane L, seeded with rng R, produces a RunResult
// BIT-IDENTICAL to run(DivProcess, OpinionState, R') of a scalar engine
// started from the same opinions with R' seeded identically.  Concretely:
//
//   * each lane's rng consumes draws in the exact scalar order -- per step
//     the vertex scheme draws uniform_below(n) then uniform_below(degree),
//     the edge scheme draws uniform_below(m) then next() & 1 (select_pair's
//     order), and nothing else touches the lane's stream;
//   * stop conditions are evaluated at the same points: before the first
//     step and after every step, with the step cap ordered as in the scalar
//     run_loop.  Steps are drawn and applied in blocks (a lane that reaches
//     consensus mid-block rewinds its rng to the consuming draw, so the
//     stream position is still exactly the scalar one);
//   * aggregates come from OpinionPlane::set and the plane's block kernels,
//     which mirror OpinionState::set operation for operation.
//
// A lane that stops (consensus / cap / cancel) retires from the sweep while
// the rest keep stepping, so a batch's wall clock tracks its slowest lane
// without spending cycles on finished ones.
//
// run_lane_jump() is the jump-chain engine on a one-lane plane, under the
// same contract against run_jump().  It runs one lane because extra lanes
// did not pay: lock-step jump groups measured within a few percent of one
// lane per replica in the microbenchmark and slower end to end, so they
// were removed (DESIGN.md, "Lane jump chain").
//
// Tracing is not supported (RunOptions::trace_stride must be 0) and the
// process is always plain DIV: faulty or otherwise decorated processes need
// the scalar engines' virtual dispatch, which is exactly the overhead this
// path removes.  divsim runs every untraced plain-DIV attempt here, as a
// one-lane plane when it runs alone and always for --engine jump; run() /
// run_jump() serve tracing, decorated and non-DIV processes, and stay the
// bit-identity oracles.
//
// This file owns no threads and no replica pool.  Replica sets reach these
// engines through one driver, run_supervised_set (engine/supervisor): its
// thread executor claims lock-step groups of ready step-engine attempts for
// SupervisorOptions::batch_task, and every lone attempt -- on either
// executor, and every jump-engine attempt -- goes through the
// SupervisedTask, which divsim runs on a one-lane plane.
#pragma once

#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "core/opinion_plane.hpp"
#include "core/selection.hpp"
#include "engine/engine.hpp"
#include "engine/jump_engine.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace divlib {

// Runs every lane of `plane` (all lanes must be assigned) to a terminal
// status.  rngs[i] is lane i's private stream; rngs.size() must equal
// plane.num_lanes().  `lane_cancels`, when non-empty, carries one token per
// lane (entries may be null): a fired lane token drains THAT lane at its
// next cancellation poll -- tokens are checked before the first step and
// then every few step blocks, not per step (the supervisor's per-attempt
// deadline leases tolerate that coarseness) -- while options.cancel,
// consulted for lanes without a private token, drains the whole batch.
// options.trace_stride must be 0 and options.metrics null.  `lane_metrics`,
// when non-empty, carries one sink per lane (entries may be null); lane i's
// sink receives what run() writes for the same seed: one naive timeline
// entry at step 0 and the lane's scheduled_steps, with wall_* timing the
// lane from the group's start to its retirement.
std::vector<RunResult> run_batch(
    const Graph& graph, SelectionScheme scheme, OpinionPlane& plane,
    std::span<Rng> rngs, const RunOptions& options,
    std::span<const CancelToken* const> lane_cancels = {},
    std::span<RunMetrics* const> lane_metrics = {});

// One-lane JUMP-CHAIN execution: the scalar hybrid run_jump() state machine
// -- geometric lazy-step skipping against a BasicDiscordanceTracker over a
// PlaneLaneView, with the [1/64, 1/16] hysteresis switches into and out of
// naive scheduled-step mode -- on a plane of exactly one lane.  Naive mode
// runs pre-drawn blocks of at most 32 steps through the plane's counted
// block kernel, rewinding the stream when the stop rule lands mid-block.
// The draws, mode switches, step counts, effective_steps and final state are
// BIT-IDENTICAL to run_jump() with the same seed, and options.metrics (may
// be null) receives what run_jump() writes: the mode timeline with the
// tracker's activity at each switch, activity samples, scheduled /
// effective / lazy-skipped / frozen-tail steps and tracker rebuilds.
// options.cancel drains the run between scheduled iterations, polled every
// few iterations as run_batch polls.  Plain DIV only; a plane with other
// than one lane and options.trace_stride != 0 are refused with
// std::invalid_argument.
JumpRunResult run_lane_jump(const Graph& graph, SelectionScheme scheme,
                            OpinionPlane& plane, Rng& rng,
                            const RunOptions& options);

}  // namespace divlib
