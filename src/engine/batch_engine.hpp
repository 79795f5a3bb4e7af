// Plain-DIV execution over an OpinionPlane: the lane kernels, one replica
// per plane.
//
// run_lane() advances a plane through the SCHEDULED discrete incremental
// voting process -- the same chain the scalar run() executes via DivProcess
// -- with everything the scalar loop pays per step (virtual Process
// dispatch, trace hook, out-of-line is_satisfied / select_pair /
// OpinionState::set calls) inlined away, and steps drawn in blocks so every
// cell a block touches is prefetched before the first application reads
// the plane.  run_lane_jump() is the jump-chain engine on the same plane.
//
// Bit-identity contract: run_lane on a plane seeded with rng R produces a
// RunResult BIT-IDENTICAL to run(DivProcess, OpinionState, R') started from
// the same opinions with R' seeded identically, and run_lane_jump likewise
// against run_jump().  Concretely:
//
//   * the rng consumes draws in the exact scalar order -- per step the
//     vertex scheme draws uniform_below(n) then uniform_below(degree), the
//     edge scheme draws uniform_below(m) then next() & 1 (select_pair's
//     order), and nothing else touches the stream;
//   * stop conditions are evaluated at the same points: before the first
//     step and after every step, with the step cap ordered as in the scalar
//     run_loop.  Steps are drawn and applied in blocks (a run that reaches
//     the stop rule mid-block rewinds its rng to the consuming draw, so the
//     stream position is still exactly the scalar one);
//   * aggregates come from OpinionPlane::set and the plane's block kernel,
//     which mirror OpinionState::set operation for operation.
//
// Both kernels run one replica per plane; DESIGN.md ("Batched replica
// engine") has the measurements behind that.
//
// Tracing is not supported (RunOptions::trace_stride must be 0) and the
// process is always plain DIV: faulty or otherwise decorated processes need
// the scalar engines' virtual dispatch, which is exactly the overhead this
// path removes.  divsim runs every untraced plain-DIV attempt here; run() /
// run_jump() serve tracing, decorated and non-DIV processes, and stay the
// bit-identity oracles.
//
// This file owns no threads and no replica pool.  Replica sets reach these
// engines through one driver, run_supervised_set (engine/supervisor), whose
// SupervisedTask divsim runs on a plane per attempt.
#pragma once

#include "core/opinion_plane.hpp"
#include "core/selection.hpp"
#include "engine/engine.hpp"
#include "engine/jump_engine.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace divlib {

// Runs `plane` (built over `graph`) to a terminal status on the private
// stream `rng`.  options.cancel drains the run at its next cancellation
// poll -- checked before the first step and then every few step blocks,
// not per step (the supervisor's per-attempt deadline leases tolerate that
// coarseness) -- with the status the token's reason names.
// options.metrics (may be null) receives what run() writes for the same
// seed: one naive timeline entry at step 0 and the scheduled steps, with
// wall_* timing the run.  options.trace_stride != 0 and a plane built over
// another graph are refused with std::invalid_argument.
RunResult run_lane(const Graph& graph, SelectionScheme scheme,
                   OpinionPlane& plane, Rng& rng, const RunOptions& options);

// JUMP-CHAIN execution: the scalar hybrid run_jump() state machine --
// geometric lazy-step skipping against a BasicDiscordanceTracker over the
// plane, with the [1/64, 1/16] hysteresis switches into and out of naive
// scheduled-step mode.  Naive mode runs pre-drawn blocks of at most 32
// steps through the same block step run_lane uses.  The draws, mode
// switches, step counts, effective_steps and final state are BIT-IDENTICAL
// to run_jump() with the same seed, and options.metrics (may be null)
// receives what run_jump() writes: the mode timeline with the tracker's
// activity at each switch, activity samples, scheduled / effective /
// lazy-skipped / frozen-tail steps and tracker rebuilds.  options.cancel
// drains the run between scheduled iterations, polled as run_lane polls.
// Plain DIV only; the refusals are run_lane's.
JumpRunResult run_lane_jump(const Graph& graph, SelectionScheme scheme,
                            OpinionPlane& plane, Rng& rng,
                            const RunOptions& options);

}  // namespace divlib
