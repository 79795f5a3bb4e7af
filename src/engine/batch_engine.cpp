#include "engine/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <string>

#include "core/discordance_tracker.hpp"
#include "core/div_process.hpp"
#include "engine/stop_condition.hpp"

namespace divlib {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pre-drawn step blocks.  The rng stream does not depend on the opinion
// state -- per step the vertex scheme draws uniform_below(n) then
// uniform_below(degree(updater)) and the edge scheme uniform_below(m) then
// next(), all functions of the graph and the stream alone -- so a whole
// block of (updater, observed) pairs can be drawn, and every opinion cell it
// will touch prefetched, before the first application reads the plane.  By
// apply time each cell has had a block's worth of independent work to cover
// its miss.  A run that stops mid-block rewinds its rng to the block-start
// snapshot and re-executes exactly the draws of its completed steps
// (rewind_block), so its final stream position is bit-identical to the
// scalar engines'.
constexpr std::uint64_t kBlockSteps = 32;

// Cancellation drains a run at a block boundary: one acquire load per step
// is measurable in a loop this tight, so tokens are polled every
// kCancelBlocks iterations (and always before the first step) -- a few
// dozen steps of extra drain latency against deadlines that are
// milliseconds at their tightest.
constexpr std::uint64_t kCancelBlocks = 8;

// Draws `count` scheduled (updater, observed) pairs from `rng` into upd/obs
// in select_pair's order, prefetching the cells the apply will read from
// the plane whose raw cells start at `vals` (stride `cell`).
void draw_block(const Graph& graph, SelectionScheme scheme, Rng& rng,
                const char* vals, std::size_t cell, VertexId* __restrict upd,
                VertexId* __restrict obs, std::uint64_t count) {
  if (scheme == SelectionScheme::kVertex) {
    const VertexId n = graph.num_vertices();
    for (std::uint64_t s = 0; s < count; ++s) {
      const auto updater = static_cast<VertexId>(rng.uniform_below(n));
      const auto row = graph.neighbors(updater);
      const VertexId observed =
          row[static_cast<std::size_t>(rng.uniform_below(row.size()))];
      upd[s] = updater;
      obs[s] = observed;
      __builtin_prefetch(vals + updater * cell, 1);
      __builtin_prefetch(vals + observed * cell, 0);
    }
    return;
  }
  const std::span<const Edge> edges = graph.edges();
  const std::uint64_t num_edges = edges.size();
  for (std::uint64_t s = 0; s < count; ++s) {
    const Edge& edge =
        edges[static_cast<std::size_t>(rng.uniform_below(num_edges))];
    const bool forward = (rng.next() & 1u) != 0;
    const VertexId updater = forward ? edge.u : edge.v;
    const VertexId observed = forward ? edge.v : edge.u;
    upd[s] = updater;
    obs[s] = observed;
    __builtin_prefetch(vals + updater * cell, 1);
    __builtin_prefetch(vals + observed * cell, 0);
  }
}

// Restores `rng` to exactly `consumed` completed steps past the block-start
// `snapshot`.  Re-executing the draw calls (instead of storing raw words)
// replays rejection retries of uniform_below identically, so the stream
// position is exact no matter how many raw words a draw ate.
void rewind_block(const Graph& graph, SelectionScheme scheme, Rng& rng,
                  const std::array<std::uint64_t, 4>& snapshot,
                  std::uint64_t consumed) {
  rng.set_state(snapshot);
  for (std::uint64_t s = 0; s < consumed; ++s) {
    if (scheme == SelectionScheme::kVertex) {
      const auto updater =
          static_cast<VertexId>(rng.uniform_below(graph.num_vertices()));
      rng.uniform_below(graph.neighbors(updater).size());
    } else {
      rng.uniform_below(graph.edges().size());
      rng.next();
    }
  }
}

// A run's scratch for one block of pre-drawn (updater, observed) pairs.
struct BlockPairs {
  std::array<VertexId, kBlockSteps> upd{};
  std::array<VertexId, kBlockSteps> obs{};
};

// One block of `count` (at most kBlockSteps) scheduled steps, shared by
// run_lane and run_lane_jump's naive mode: draw, counted apply, and the
// rewind when the stop rule lands mid-block.  `applied` < count exactly
// when the run stopped inside the block; a stop on the block's last step
// consumed every draw, so it needs no rewind.
OpinionPlane::AppliedSteps step_block(const Graph& graph,
                                      SelectionScheme scheme,
                                      OpinionPlane& plane, Rng& rng,
                                      BlockPairs& pairs, std::uint64_t count,
                                      Opinion stop_delta) {
  const std::array<std::uint64_t, 4> snapshot = rng.state();
  draw_block(graph, scheme, rng, static_cast<const char*>(plane.raw()),
             plane.cell_bytes(), pairs.upd.data(), pairs.obs.data(), count);
  const OpinionPlane::AppliedSteps applied =
      plane.apply_steps_toward_counted(pairs.upd.data(), pairs.obs.data(),
                                       count, stop_delta);
  if (applied.applied < count) {
    rewind_block(graph, scheme, rng, snapshot, applied.applied);
  }
  return applied;
}

// The refusals both kernels share.
void check_lane_arguments(const char* who, const Graph& graph,
                          SelectionScheme scheme, const OpinionPlane& plane,
                          const RunOptions& options) {
  if (options.trace_stride != 0) {
    throw std::invalid_argument(std::string(who) +
                                " records no traces; use the scalar engines "
                                "for tracing");
  }
  if (&plane.graph() != &graph) {
    throw std::invalid_argument(std::string(who) +
                                ": the plane must be built over `graph`");
  }
  validate_for_selection(graph, scheme);
}

// The scalar engines' finalize(): the plane's aggregate snapshot.
void fill_result(const OpinionPlane& plane, RunStatus status,
                 std::uint64_t steps, RunResult& result) {
  result.status = status;
  result.completed = status == RunStatus::kCompleted;
  result.steps = steps;
  result.min_active = plane.min_active();
  result.max_active = plane.max_active();
  result.num_active = plane.num_active();
  result.final_sum = plane.sum();
  result.final_z = plane.z_total();
  if (plane.is_consensus()) {
    result.winner = plane.min_active();
  }
}

}  // namespace

RunResult run_lane(const Graph& graph, SelectionScheme scheme,
                   OpinionPlane& plane, Rng& rng, const RunOptions& options) {
  check_lane_arguments("run_lane", graph, scheme, plane, options);
  const auto wall_start = Clock::now();
  RunMetrics* const metrics = options.metrics;
  // is_satisfied(kConsensus) == (max - min <= 0); kTwoAdjacent == (<= 1).
  const Opinion stop_delta = options.stop == StopKind::kConsensus ? 0 : 1;
  if (metrics != nullptr) {
    // Like the naive scalar engine: one all-scheduled segment.
    metrics->record_mode_switch(0, /*jump_mode=*/false, 0.0, 0);
  }
  RunResult result;
  const auto finish = [&](RunStatus status, std::uint64_t steps) {
    fill_result(plane, status, steps, result);
    if (metrics != nullptr) {
      const double wall = seconds_since(wall_start);
      metrics->scheduled_steps = steps;
      metrics->wall_seconds_total = wall;
      metrics->wall_seconds_naive = wall;
    }
    return result;
  };
  // Scalar ordering: a run satisfied before its first step completes with
  // zero steps; an unsatisfied run under a zero budget is capped at zero.
  if (plane.spread() <= stop_delta) {
    return finish(RunStatus::kCompleted, 0);
  }
  BlockPairs pairs;
  std::uint64_t steps = 0;
  for (std::uint64_t iteration = 0; steps < options.max_steps; ++iteration) {
    if (iteration % kCancelBlocks == 0 && options.cancel != nullptr &&
        options.cancel->requested()) {
      return finish(drained_status(*options.cancel), steps);
    }
    // The stopping rule is a pure function of the state and the spread only
    // moves on a changed step, so the kernel's unconditional after-every-
    // step check is semantically identical to the scalar loop's check.
    const std::uint64_t block =
        std::min<std::uint64_t>(kBlockSteps, options.max_steps - steps);
    steps +=
        step_block(graph, scheme, plane, rng, pairs, block, stop_delta).applied;
    if (plane.spread() <= stop_delta) {
      return finish(RunStatus::kCompleted, steps);
    }
  }
  return finish(RunStatus::kCapped, steps);
}

JumpRunResult run_lane_jump(const Graph& graph, SelectionScheme scheme,
                            OpinionPlane& plane, Rng& rng,
                            const RunOptions& options) {
  check_lane_arguments("run_lane_jump", graph, scheme, plane, options);
  const auto wall_start = Clock::now();
  RunMetrics* const metrics = options.metrics;
  const Opinion stop_delta = options.stop == StopKind::kConsensus ? 0 : 1;
  const std::uint64_t max_steps = options.max_steps;

  // As in run_jump: the tracker is built (and the launch entry stamped with
  // its activity) before the first stop check, and the run starts in jump
  // mode so a start that can never change state is diagnosed at once.
  BasicDiscordanceTracker<OpinionPlane> tracker(plane, scheme);
  JumpRunResult result;
  bool jump_mode = true;
  Clock::time_point segment_start = wall_start;  // metrics only
  // Books the wall time since segment_start to the mode that segment ran in.
  const auto close_segment = [&](bool was_jump) {
    const auto now = Clock::now();
    (was_jump ? metrics->wall_seconds_jump : metrics->wall_seconds_naive) +=
        std::chrono::duration<double>(now - segment_start).count();
    segment_start = now;
  };
  if (metrics != nullptr) {
    metrics->record_mode_switch(0, /*jump_mode=*/true,
                                tracker.active_probability(),
                                tracker.total_discordant_pairs());
  }
  const auto finish = [&](RunStatus status, std::uint64_t steps) {
    fill_result(plane, status, steps, result);
    if (metrics != nullptr) {
      close_segment(jump_mode);
      metrics->wall_seconds_total = seconds_since(wall_start);
      metrics->scheduled_steps = steps;
      metrics->effective_steps = result.effective_steps;
      metrics->tracker_rebuilds = tracker.rebuilds();
    }
    return result;
  };
  if (plane.spread() <= stop_delta) {
    return finish(RunStatus::kCompleted, 0);
  }

  std::uint64_t clock = 0;  // scheduled steps, lazy ones included
  // The mode switch at `clock`; the tracker is fresh at both kinds (still
  // fresh at a jump exit, just rebuilt at a jump entry), so a timeline entry
  // carries exact activity.
  const auto switch_mode = [&](bool to_jump) {
    jump_mode = to_jump;
    ++result.mode_switches;
    if (metrics != nullptr) {
      metrics->record_mode_switch(clock, to_jump, tracker.active_probability(),
                                  tracker.total_discordant_pairs());
      close_segment(/*was_jump=*/!to_jump);
    }
  };
  std::uint64_t window_steps = 0;      // naive mode: steps in this window
  std::uint64_t window_effective = 0;  // naive mode: changed steps in window
  BlockPairs pairs;

  // One iteration is one effective step in jump mode or one pre-drawn block
  // in naive mode; the cancel poll sits between iterations, every
  // kCancelBlocks of them, as in run_lane.
  for (std::uint64_t iteration = 0; clock < max_steps; ++iteration) {
    if (iteration % kCancelBlocks == 0 && options.cancel != nullptr &&
        options.cancel->requested()) {
      return finish(drained_status(*options.cancel), clock);
    }
    if (jump_mode) {
      // Frozen: every pair agrees but the stop rule does not hold, so the
      // scalar loop idles to the cap.  Watchdog: the next effective step
      // falls beyond the budget.  Either way the remaining stretch is
      // booked as skipped lazy steps.
      const bool frozen = tracker.frozen();
      const std::uint64_t skipped =
          frozen ? 0 : rng.geometric(tracker.active_probability());
      if (frozen || skipped >= max_steps - clock) {
        if (metrics != nullptr) {
          metrics->frozen_tail_steps += max_steps - clock;
          metrics->lazy_steps_skipped += max_steps - clock;
        }
        return finish(RunStatus::kCapped, max_steps);
      }
      clock += skipped + 1;
      const SelectedPair pair = tracker.sample_discordant_pair(rng);
      const Opinion own = plane.opinion(pair.updater);
      plane.set(pair.updater, DivProcess::updated_opinion(
                                  own, plane.opinion(pair.observed)));
      tracker.apply_move(pair.updater, own);
      ++result.effective_steps;
      if (metrics != nullptr) {
        metrics->lazy_steps_skipped += skipped;
        if (metrics->activity_stride > 0 &&
            result.effective_steps % metrics->activity_stride == 0) {
          metrics->record_activity(clock, tracker.active_probability(),
                                   tracker.total_discordant_pairs());
        }
      }
      if (plane.spread() <= stop_delta) {
        return finish(RunStatus::kCompleted, clock);
      }
      if (tracker.active_probability() > kJumpExitActiveProbability) {
        // Dense phase: drop to naive scheduled steps, tracker left stale.
        switch_mode(/*to_jump=*/false);
        window_steps = 0;
        window_effective = 0;
      }
    } else {
      // Naive mode: a pre-drawn block that ends at the window boundary or
      // the cap at the latest.  The counted kernel's `changed` is the scalar
      // loop's per-step `next != own` tally, so the window bookkeeping is
      // exact.
      const std::uint64_t block =
          std::min({kBlockSteps, kNaiveWindow - window_steps,
                    max_steps - clock});
      const OpinionPlane::AppliedSteps applied =
          step_block(graph, scheme, plane, rng, pairs, block, stop_delta);
      window_steps += applied.applied;
      window_effective += applied.changed;
      result.effective_steps += applied.changed;
      if (plane.spread() <= stop_delta) {
        return finish(RunStatus::kCompleted, clock + applied.applied);
      }
      clock += block;
      if (window_steps == kNaiveWindow) {
        if (window_effective <= kJumpEnterEffectiveMax) {
          tracker.rebuild_counts();
          switch_mode(/*to_jump=*/true);
        }
        window_steps = 0;
        window_effective = 0;
      }
    }
  }
  return finish(RunStatus::kCapped, clock);
}

}  // namespace divlib
