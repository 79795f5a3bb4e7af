#include "engine/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
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

// Argument checks shared by both lane engines; `engine` names the caller in
// the messages.
void validate_lane_args(const char* engine, const Graph& graph,
                        SelectionScheme scheme, unsigned lanes,
                        std::size_t num_rngs, const RunOptions& options,
                        std::size_t num_cancels, std::size_t num_metrics) {
  const std::string name(engine);
  if (num_rngs != lanes) {
    throw std::invalid_argument(name + ": one rng per lane is required");
  }
  if (num_cancels != 0 && num_cancels != lanes) {
    throw std::invalid_argument(
        name + ": lane_cancels must be empty or one token slot per lane");
  }
  if (num_metrics != 0 && num_metrics != lanes) {
    throw std::invalid_argument(
        name + ": lane_metrics must be empty or one sink slot per lane");
  }
  if (options.trace_stride != 0) {
    throw std::invalid_argument(
        name + " records no traces; use the scalar engines for tracing");
  }
  if (options.metrics != nullptr) {
    throw std::invalid_argument(
        name + " records telemetry per lane; pass lane_metrics instead of "
               "RunOptions::metrics");
  }
  validate_for_selection(graph, scheme);
}

}  // namespace

std::vector<RunResult> run_batch(
    const Graph& graph, SelectionScheme scheme, OpinionPlane& plane,
    std::span<Rng> rngs, const RunOptions& options,
    std::span<const CancelToken* const> lane_cancels,
    std::span<RunMetrics* const> lane_metrics) {
  const unsigned lanes = plane.num_lanes();
  validate_lane_args("run_batch", graph, scheme, lanes, rngs.size(), options,
                     lane_cancels.size(), lane_metrics.size());
  const auto wall_start = Clock::now();
  const auto sink_for = [&](unsigned lane) -> RunMetrics* {
    return lane_metrics.empty() ? nullptr : lane_metrics[lane];
  };
  for (unsigned lane = 0; lane < lanes; ++lane) {
    if (RunMetrics* metrics = sink_for(lane)) {
      // Like the naive scalar engine: one all-scheduled segment.
      metrics->record_mode_switch(0, /*jump_mode=*/false, 0.0, 0);
    }
  }

  const VertexId n = graph.num_vertices();
  const std::span<const Edge> edges = graph.edges();
  const std::uint64_t num_edges = edges.size();
  // is_satisfied(kConsensus) == (max - min <= 0); kTwoAdjacent == (<= 1).
  const Opinion stop_delta = options.stop == StopKind::kConsensus ? 0 : 1;

  std::vector<RunResult> results(lanes);

  const auto token_for = [&](unsigned lane) -> const CancelToken* {
    if (!lane_cancels.empty() && lane_cancels[lane] != nullptr) {
      return lane_cancels[lane];
    }
    return options.cancel;
  };
  const auto finalize_lane = [&](unsigned lane, RunStatus status,
                                 std::uint64_t steps) {
    RunResult& result = results[lane];
    result.status = status;
    result.completed = status == RunStatus::kCompleted;
    result.steps = steps;
    result.min_active = plane.min_active(lane);
    result.max_active = plane.max_active(lane);
    result.num_active = plane.num_active(lane);
    result.final_sum = plane.sum(lane);
    result.final_z = plane.z_total(lane);
    if (plane.is_consensus(lane)) {
      result.winner = plane.min_active(lane);
    }
    if (RunMetrics* metrics = sink_for(lane)) {
      const double wall = seconds_since(wall_start);
      metrics->scheduled_steps = steps;
      metrics->wall_seconds_total = wall;
      metrics->wall_seconds_naive = wall;
    }
  };

  // Dense per-live-lane context.  The sweeps below run tens of millions of
  // iterations; resolving rngs[active[i]] / lane_data(active[i]) through the
  // lane id every time costs an extra dependent load per draw, so the hot
  // pointers are compacted into stripes indexed directly by live position
  // and swap-removed together when a lane retires.
  std::vector<unsigned> active;       // lane id, for aggregates/finalize
  std::vector<Rng*> lane_rng;
  std::vector<const char*> lane_vals;  // raw cell base (see cell stride)
  std::vector<const CancelToken*> lane_token;
  std::vector<std::uint64_t> lane_steps;
  active.reserve(lanes);
  lane_rng.reserve(lanes);
  lane_vals.reserve(lanes);
  lane_token.reserve(lanes);
  lane_steps.reserve(lanes);

  // Scalar ordering: a lane satisfied before its first step completes with
  // zero steps; an unsatisfied lane under a zero budget is capped at zero.
  for (unsigned lane = 0; lane < lanes; ++lane) {
    if (plane.max_active(lane) - plane.min_active(lane) <= stop_delta) {
      finalize_lane(lane, RunStatus::kCompleted, 0);
    } else if (options.max_steps == 0) {
      finalize_lane(lane, RunStatus::kCapped, 0);
    } else {
      active.push_back(lane);
      lane_rng.push_back(&rngs[lane]);
      lane_vals.push_back(static_cast<const char*>(plane.lane_raw(lane)));
      lane_token.push_back(token_for(lane));
      lane_steps.push_back(0);
    }
  }

  // Pre-drawn step blocks.  A lane's rng stream does not depend on the
  // opinion state -- per step the vertex scheme draws uniform_below(n) then
  // uniform_below(degree(updater)) and the edge scheme uniform_below(m)
  // then next(), all functions of the graph and the stream alone -- so a
  // whole block of (updater, observed) pairs can be drawn, and every
  // opinion cell it will touch prefetched, before the first application
  // reads the plane.  By apply time each cell has had a block's worth of
  // independent work to cover its miss; the lanes' serial load chains never
  // gate the sweep.  A lane that stops mid-block (consensus; the step cap
  // lands on a block boundary by construction) rewinds its rng to the
  // block-start snapshot and re-executes exactly the draws of its completed
  // steps, so its final stream position is bit-identical to the scalar
  // engine's.
  constexpr std::uint64_t kBlockSteps = 32;
  // Cell stride for prefetch addressing (1 for byte-packed planes).
  const std::size_t cell = plane.cell_bytes();

  // Block scratch, lane-major stripes: upd[i * kBlockSteps + s].
  std::vector<VertexId> upd(static_cast<std::size_t>(lanes) * kBlockSteps);
  std::vector<VertexId> obs(static_cast<std::size_t>(lanes) * kBlockSteps);
  std::vector<std::array<std::uint64_t, 4>> block_start(lanes);

  // Retirement happens only at phase boundaries -- the cancel poll before a
  // draw, or the compaction after a whole apply phase -- so a retired slot's
  // scratch stripe and block snapshot are always dead (the next draw phase
  // rewrites both for every surviving lane) and only the per-lane context
  // moves.
  const auto retire = [&](std::size_t i, std::size_t last) {
    active[i] = active[last];
    lane_rng[i] = lane_rng[last];
    lane_vals[i] = lane_vals[last];
    lane_token[i] = lane_token[last];
    lane_steps[i] = lane_steps[last];
  };
  std::vector<unsigned char> retired_flags(lanes, 0);

  // Restores lane i's stream to `exactly `consumed` completed steps past the
  // block-start snapshot.  Re-executing the draw calls (instead of storing
  // raw words) replays rejection retries of uniform_below identically, so
  // the stream position is exact no matter how many raw words a draw ate.
  const auto rewind_to = [&](std::size_t i, std::uint64_t consumed) {
    Rng& rng = *lane_rng[i];
    rng.set_state(block_start[i]);
    if (scheme == SelectionScheme::kVertex) {
      for (std::uint64_t s = 0; s < consumed; ++s) {
        const auto updater =
            static_cast<VertexId>(rng.uniform_below(n));
        rng.uniform_below(graph.neighbors(updater).size());
      }
    } else {
      for (std::uint64_t s = 0; s < consumed; ++s) {
        rng.uniform_below(num_edges);
        rng.next();
      }
    }
  };

  // Cancellation drains a lane at a block boundary: one acquire load per
  // lane per step is measurable in a loop this tight, so tokens are polled
  // every kCancelBlocks blocks (and always before the first step) -- a few
  // dozen steps of extra drain latency against deadlines that are
  // milliseconds at their tightest.
  constexpr std::uint64_t kCancelBlocks = 8;
  std::uint64_t block_index = 0;

  while (!active.empty()) {
    std::size_t live = active.size();

    if (block_index++ % kCancelBlocks == 0) {
      for (std::size_t i = 0; i < live;) {
        const CancelToken* token = lane_token[i];
        if (token != nullptr && token->requested()) {
          finalize_lane(active[i], drained_status(*token), lane_steps[i]);
          retire(i, --live);
        } else {
          ++i;
        }
      }
      active.resize(live);
      if (live == 0) {
        break;
      }
    }

    // Every live lane has stepped the same number of times (lanes only
    // diverge by retiring), so one block width serves them all and the step
    // cap is enforced purely by block sizing.
    const std::uint64_t done_before = lane_steps[0];
    const std::uint64_t block =
        std::min<std::uint64_t>(kBlockSteps, options.max_steps - done_before);

    // Draw phase, lane-major: per lane, snapshot the stream, pre-draw
    // `block` pairs, prefetch the cells the apply phase will read.  The
    // lane's xoshiro state lives in registers for the whole stripe (a
    // step-major interleave was tried and lost: it round-trips the state
    // through memory every draw, and the extra L1 traffic costs more than
    // the chain interleaving buys).
    if (scheme == SelectionScheme::kVertex) {
      // Lane pairs: a single lane's two draws per step form one serial
      // xoshiro dependency chain, so a lone stripe is latency-bound on the
      // generator.  Walking two lanes' streams together gives the core two
      // independent chains to overlap (the states are copied into locals so
      // they live in registers for the whole stripe; a full step-major
      // interleave of ALL lanes was tried and lost -- it round-trips every
      // state through memory each draw).
      std::size_t i = 0;
      for (; i + 1 < live; i += 2) {
        Rng ra = *lane_rng[i];
        Rng rb = *lane_rng[i + 1];
        block_start[i] = ra.state();
        block_start[i + 1] = rb.state();
        const char* vals_a = lane_vals[i];
        const char* vals_b = lane_vals[i + 1];
        // __restrict: the stripes never alias the graph's adjacency data the
        // loop reads, but VertexId stores would otherwise pin every
        // following same-width load in program order.
        VertexId* __restrict upd_a_out = &upd[i * kBlockSteps];
        VertexId* __restrict obs_a_out = &obs[i * kBlockSteps];
        VertexId* __restrict upd_b_out = &upd[(i + 1) * kBlockSteps];
        VertexId* __restrict obs_b_out = &obs[(i + 1) * kBlockSteps];
        for (std::uint64_t s = 0; s < block; ++s) {
          const auto upd_a = static_cast<VertexId>(ra.uniform_below(n));
          const auto upd_b = static_cast<VertexId>(rb.uniform_below(n));
          const auto row_a = graph.neighbors(upd_a);
          const auto row_b = graph.neighbors(upd_b);
          const VertexId obs_a = row_a[static_cast<std::size_t>(
              ra.uniform_below(row_a.size()))];
          const VertexId obs_b = row_b[static_cast<std::size_t>(
              rb.uniform_below(row_b.size()))];
          upd_a_out[s] = upd_a;
          obs_a_out[s] = obs_a;
          upd_b_out[s] = upd_b;
          obs_b_out[s] = obs_b;
          __builtin_prefetch(vals_a + upd_a, 1);
          __builtin_prefetch(vals_a + obs_a, 0);
          __builtin_prefetch(vals_b + upd_b, 1);
          __builtin_prefetch(vals_b + obs_b, 0);
        }
        *lane_rng[i] = ra;
        *lane_rng[i + 1] = rb;
      }
      for (; i < live; ++i) {
        Rng& rng = *lane_rng[i];
        block_start[i] = rng.state();
        const char* vals = lane_vals[i];
        const std::size_t base = i * kBlockSteps;
        for (std::uint64_t s = 0; s < block; ++s) {
          const auto updater = static_cast<VertexId>(rng.uniform_below(n));
          const auto row = graph.neighbors(updater);
          const VertexId observed = row[static_cast<std::size_t>(
              rng.uniform_below(row.size()))];
          upd[base + s] = updater;
          obs[base + s] = observed;
          __builtin_prefetch(vals + updater * cell, 1);
          __builtin_prefetch(vals + observed * cell, 0);
        }
      }
    } else {
      for (std::size_t i = 0; i < live; ++i) {
        Rng& rng = *lane_rng[i];
        block_start[i] = rng.state();
        const char* vals = lane_vals[i];
        const std::size_t base = i * kBlockSteps;
        for (std::uint64_t s = 0; s < block; ++s) {
          const Edge& edge =
              edges[static_cast<std::size_t>(rng.uniform_below(num_edges))];
          const bool forward = (rng.next() & 1u) != 0;
          const VertexId updater = forward ? edge.u : edge.v;
          const VertexId observed = forward ? edge.v : edge.u;
          upd[base + s] = updater;
          obs[base + s] = observed;
          __builtin_prefetch(vals + updater * cell, 1);
          __builtin_prefetch(vals + observed * cell, 0);
        }
      }
    }

    // Apply phase: per lane, its block's steps in draw order (in-block
    // rereads of a just-written cell see the write, exactly as the scalar
    // loop would).  A lane that stops retires via swap-remove; the lane
    // swapped in from the back has not been applied this block and brings
    // its scratch stripe and snapshot along.
    // The stopping rule is a pure function of the state and the spread only
    // moves on a changed step, so the kernels' unconditional
    // after-every-step check is semantically identical to the scalar loop's
    // changed-gated check.  Stopped/capped lanes are flagged here and
    // compacted once after the sweep (order-preserving), so the pair walk
    // never revisits a slot.
    bool any_retired = false;
    const auto settle = [&](std::size_t i, std::uint64_t applied) {
      const unsigned lane = active[i];
      lane_steps[i] += applied;
      if (plane.spread(lane) <= stop_delta) {
        if (applied < block) {
          rewind_to(i, applied);
        }
        finalize_lane(lane, RunStatus::kCompleted, lane_steps[i]);
        retired_flags[i] = 1;
        any_retired = true;
      } else if (lane_steps[i] >= options.max_steps) {
        finalize_lane(lane, RunStatus::kCapped, lane_steps[i]);
        retired_flags[i] = 1;
        any_retired = true;
      }
    };
    std::size_t i = 0;
    for (; i + 1 < live; i += 2) {
      const auto [applied_a, applied_b] = plane.apply_steps_toward_pair_counted(
          active[i], &upd[i * kBlockSteps], &obs[i * kBlockSteps],
          active[i + 1], &upd[(i + 1) * kBlockSteps],
          &obs[(i + 1) * kBlockSteps], block, stop_delta);
      settle(i, applied_a.applied);
      settle(i + 1, applied_b.applied);
    }
    if (i < live) {
      settle(i, plane
                    .apply_steps_toward_counted(active[i],
                                                &upd[i * kBlockSteps],
                                                &obs[i * kBlockSteps], block,
                                                stop_delta)
                    .applied);
    }
    if (any_retired) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < live; ++r) {
        if (retired_flags[r] != 0) {
          retired_flags[r] = 0;
          continue;
        }
        if (w != r) {
          retire(w, r);
        }
        ++w;
      }
      live = w;
    }
    active.resize(live);
  }
  return results;
}

namespace {

// Per-live-lane jump-chain context.  The tracker holds a pointer to the
// sibling `view` member, so contexts must never move once constructed --
// they live in a std::deque and the engine's live list holds pointers.
struct JumpLaneCtx {
  unsigned lane;
  PlaneLaneView view;
  BasicDiscordanceTracker<PlaneLaneView> tracker;
  Rng* rng;
  const CancelToken* token;
  RunMetrics* metrics;     // the lane's telemetry sink, or null
  bool jump_mode = true;   // the scalar loop also starts in jump mode
  bool armed = false;      // jump mode only: next effective time drawn
  std::uint64_t due = 0;   // scheduled clock of the next effective step
  std::uint64_t skipped = 0;  // lazy steps the armed draw jumps over
  std::uint64_t window_steps = 0;      // naive mode: steps in this window
  std::uint64_t window_effective = 0;  // naive mode: changed steps in window
  std::uint64_t effective_steps = 0;
  std::uint64_t mode_switches = 0;
  bool done = false;
  Clock::time_point segment_start;  // current mode segment (metrics only)

  JumpLaneCtx(const OpinionPlane& plane, unsigned lane_id,
              SelectionScheme scheme, Rng* rng_in, const CancelToken* token_in,
              RunMetrics* metrics_in, Clock::time_point start)
      : lane(lane_id),
        view(plane, lane_id),
        tracker(view, scheme),
        rng(rng_in),
        token(token_in),
        metrics(metrics_in),
        segment_start(start) {}
};

// Books the wall time since `segment_start` to the bucket of the mode that
// segment ran in and starts the next segment now.
Clock::time_point close_segment(RunMetrics& metrics, bool was_jump,
                                Clock::time_point& segment_start) {
  const auto now = Clock::now();
  (was_jump ? metrics.wall_seconds_jump : metrics.wall_seconds_naive) +=
      std::chrono::duration<double>(now - segment_start).count();
  segment_start = now;
  return now;
}

// The scalar loop's end-of-run telemetry: closes the open mode segment and
// stamps the lane's totals.
void finish_jump_metrics(RunMetrics& metrics, bool jump_mode,
                         Clock::time_point segment_start,
                         Clock::time_point wall_start, std::uint64_t steps,
                         std::uint64_t effective, std::uint64_t rebuilds) {
  const auto now = close_segment(metrics, jump_mode, segment_start);
  metrics.wall_seconds_total =
      std::chrono::duration<double>(now - wall_start).count();
  metrics.scheduled_steps = steps;
  metrics.effective_steps = effective;
  metrics.tracker_rebuilds = rebuilds;
}

// Records a mode entry at `step` with the tracker's (fresh) activity and
// closes the segment that just ended.
void record_lane_switch(JumpLaneCtx& ctx, std::uint64_t step, bool jump_mode) {
  ctx.metrics->record_mode_switch(step, jump_mode,
                                  ctx.tracker.active_probability(),
                                  ctx.tracker.total_discordant_pairs());
  close_segment(*ctx.metrics, /*was_jump=*/!jump_mode, ctx.segment_start);
}

}  // namespace

std::vector<JumpRunResult> run_batch_jump(
    const Graph& graph, SelectionScheme scheme, OpinionPlane& plane,
    std::span<Rng> rngs, const RunOptions& options,
    std::span<const CancelToken* const> lane_cancels,
    std::span<RunMetrics* const> lane_metrics) {
  const unsigned lanes = plane.num_lanes();
  validate_lane_args("run_batch_jump", graph, scheme, lanes, rngs.size(),
                     options, lane_cancels.size(), lane_metrics.size());
  const auto wall_start = Clock::now();
  const auto sink_for = [&](unsigned lane) -> RunMetrics* {
    return lane_metrics.empty() ? nullptr : lane_metrics[lane];
  };

  const VertexId n = graph.num_vertices();
  const std::span<const Edge> edges = graph.edges();
  const std::uint64_t num_edges = edges.size();
  const Opinion stop_delta = options.stop == StopKind::kConsensus ? 0 : 1;
  const std::uint64_t max_steps = options.max_steps;

  std::vector<JumpRunResult> results(lanes);

  const auto token_for = [&](unsigned lane) -> const CancelToken* {
    if (!lane_cancels.empty() && lane_cancels[lane] != nullptr) {
      return lane_cancels[lane];
    }
    return options.cancel;
  };
  const auto finalize_slot = [&](unsigned lane, RunStatus status,
                                 std::uint64_t steps, std::uint64_t effective,
                                 std::uint64_t switches) {
    JumpRunResult& result = results[lane];
    result.status = status;
    result.completed = status == RunStatus::kCompleted;
    result.steps = steps;
    result.effective_steps = effective;
    result.mode_switches = switches;
    result.min_active = plane.min_active(lane);
    result.max_active = plane.max_active(lane);
    result.num_active = plane.num_active(lane);
    result.final_sum = plane.sum(lane);
    result.final_z = plane.z_total(lane);
    if (plane.is_consensus(lane)) {
      result.winner = plane.min_active(lane);
    }
  };
  const auto finalize_ctx = [&](JumpLaneCtx& ctx, RunStatus status,
                                std::uint64_t steps) {
    finalize_slot(ctx.lane, status, steps, ctx.effective_steps,
                  ctx.mode_switches);
    if (ctx.metrics != nullptr) {
      finish_jump_metrics(*ctx.metrics, ctx.jump_mode, ctx.segment_start,
                          wall_start, steps, ctx.effective_steps,
                          ctx.tracker.rebuilds());
    }
    ctx.done = true;
  };
  // A lane that never steps gets no context, but the scalar loop builds its
  // tracker before checking the stop rule and stamps the launch entry with
  // the tracker's activity; a sink gets that entry from a one-off tracker.
  const auto finalize_idle = [&](unsigned lane, RunStatus status) {
    finalize_slot(lane, status, 0, 0, 0);
    if (RunMetrics* metrics = sink_for(lane)) {
      const PlaneLaneView view(plane, lane);
      const BasicDiscordanceTracker<PlaneLaneView> tracker(view, scheme);
      metrics->record_mode_switch(0, /*jump_mode=*/true,
                                  tracker.active_probability(),
                                  tracker.total_discordant_pairs());
      finish_jump_metrics(*metrics, /*jump_mode=*/true, wall_start,
                          wall_start, 0, 0, 0);
    }
  };
  // Frozen and watchdog exits idle the lane to the cap; the scalar loop
  // books the whole remaining stretch as skipped lazy steps.
  const auto record_frozen_tail = [&](JumpLaneCtx& ctx, std::uint64_t clock) {
    if (ctx.metrics != nullptr) {
      ctx.metrics->frozen_tail_steps += max_steps - clock;
      ctx.metrics->lazy_steps_skipped += max_steps - clock;
    }
  };

  // Lane contexts need stable addresses (the tracker points at the sibling
  // view member), hence the deque; `live` swap-compacts pointers only.
  std::deque<JumpLaneCtx> ctx_store;
  std::vector<JumpLaneCtx*> live;
  live.reserve(lanes);
  // Scalar ordering: a lane satisfied before its first step completes with
  // zero steps; an unsatisfied lane under a zero budget is capped at zero.
  // (The scalar loop builds its tracker before checking; only a telemetry
  // sink can observe it, so such lanes build one only for their sink.)
  for (unsigned lane = 0; lane < lanes; ++lane) {
    if (plane.spread(lane) <= stop_delta) {
      finalize_idle(lane, RunStatus::kCompleted);
    } else if (max_steps == 0) {
      finalize_idle(lane, RunStatus::kCapped);
    } else {
      JumpLaneCtx& ctx =
          ctx_store.emplace_back(plane, lane, scheme, &rngs[lane],
                                 token_for(lane), sink_for(lane), wall_start);
      if (ctx.metrics != nullptr) {
        ctx.metrics->record_mode_switch(0, /*jump_mode=*/true,
                                        ctx.tracker.active_probability(),
                                        ctx.tracker.total_discordant_pairs());
      }
      live.push_back(&ctx);
    }
  }
  const auto prune = [&] {
    std::size_t w = 0;
    for (std::size_t r = 0; r < live.size(); ++r) {
      if (!live[r]->done) {
        live[w++] = live[r];
      }
    }
    live.resize(w);
  };

  // Naive-mode lanes reuse run_batch's block machinery: pre-drawn lane-major
  // (updater, observed) stripes, block-start rng snapshots for mid-block
  // rewinds, and the deferred-histogram counted apply kernels (the changed
  // tally is exactly the window_effective currency of the hysteresis rule).
  constexpr std::uint64_t kBlockSteps = 32;
  const std::size_t cell = plane.cell_bytes();
  std::vector<VertexId> upd(static_cast<std::size_t>(lanes) * kBlockSteps);
  std::vector<VertexId> obs(static_cast<std::size_t>(lanes) * kBlockSteps);
  std::vector<std::array<std::uint64_t, 4>> block_start(lanes);
  std::vector<JumpLaneCtx*> naive;
  std::vector<const char*> naive_vals;
  naive.reserve(lanes);
  naive_vals.reserve(lanes);

  // Restores a naive lane's stream to exactly `consumed` completed steps
  // past its block-start snapshot (see run_batch::rewind_to).
  const auto rewind_to = [&](JumpLaneCtx& ctx,
                             const std::array<std::uint64_t, 4>& snap,
                             std::uint64_t consumed) {
    Rng& rng = *ctx.rng;
    rng.set_state(snap);
    if (scheme == SelectionScheme::kVertex) {
      for (std::uint64_t s = 0; s < consumed; ++s) {
        const auto updater = static_cast<VertexId>(rng.uniform_below(n));
        rng.uniform_below(graph.neighbors(updater).size());
      }
    } else {
      for (std::uint64_t s = 0; s < consumed; ++s) {
        rng.uniform_below(num_edges);
        rng.next();
      }
    }
  };

  constexpr std::uint64_t kCancelBlocks = 8;
  std::uint64_t iteration = 0;

  // The lane-group SCHEDULED clock.  Every live lane agrees on it: jump-mode
  // lanes sleep until their drawn due time, naive-mode lanes execute every
  // scheduled step in between.  Each loop iteration advances the clock to
  // the nearest event horizon and then settles the lanes whose event lands
  // exactly there, so per lane the sequence of rng draws, mode switches, and
  // state writes is the scalar run_jump loop's, merely re-ordered across
  // lanes (which never observe each other).
  std::uint64_t clock = 0;
  while (!live.empty()) {
    // Same drain point as the scalar loop: between scheduled iterations
    // (polled coarsely, as in run_batch).
    if (iteration++ % kCancelBlocks == 0) {
      bool drained = false;
      for (JumpLaneCtx* ctx : live) {
        if (ctx->token != nullptr && ctx->token->requested()) {
          finalize_ctx(*ctx, drained_status(*ctx->token), clock);
          drained = true;
        }
      }
      if (drained) {
        prune();
        if (live.empty()) {
          break;
        }
      }
    }

    // Arm pass: every jump-mode lane whose next effective time is undrawn
    // draws it now -- frozen check, then Geometric(p) skip, in the scalar
    // order.  due == clock + skipped + 1 <= max_steps by the watchdog check.
    {
      bool capped = false;
      for (JumpLaneCtx* ctx_ptr : live) {
        JumpLaneCtx& ctx = *ctx_ptr;
        if (!ctx.jump_mode || ctx.armed) {
          continue;
        }
        if (ctx.tracker.frozen()) {
          // Every pair agrees but the stop rule does not hold: the scalar
          // loop idles to the cap.
          record_frozen_tail(ctx, clock);
          finalize_ctx(ctx, RunStatus::kCapped, max_steps);
          capped = true;
          continue;
        }
        const std::uint64_t skipped =
            ctx.rng->geometric(ctx.tracker.active_probability());
        if (skipped >= max_steps - clock) {
          // Watchdog: the next effective step falls beyond the budget.
          record_frozen_tail(ctx, clock);
          finalize_ctx(ctx, RunStatus::kCapped, max_steps);
          capped = true;
          continue;
        }
        ctx.due = clock + skipped + 1;
        ctx.skipped = skipped;
        ctx.armed = true;
      }
      if (capped) {
        prune();
        if (live.empty()) {
          break;
        }
      }
    }

    // Horizon: the nearest scheduled time anything happens -- a jump lane's
    // due time, a naive lane's window boundary, the draw-block granularity,
    // or the step cap.  Always > clock: dues are >= clock + 1 and window
    // boundaries are strictly ahead (window_steps < kNaiveWindow here).
    std::uint64_t horizon = max_steps;
    bool any_naive = false;
    for (const JumpLaneCtx* ctx : live) {
      if (ctx->jump_mode) {
        horizon = std::min(horizon, ctx->due);
      } else {
        any_naive = true;
        horizon =
            std::min(horizon, clock + (kNaiveWindow - ctx->window_steps));
      }
    }
    if (any_naive) {
      horizon = std::min(horizon, clock + kBlockSteps);
    }
    const std::uint64_t block = horizon - clock;

    // Naive advance: draw and apply `block` scheduled steps for every
    // naive-mode lane (jump-mode lanes sleep through them).
    if (any_naive) {
      naive.clear();
      naive_vals.clear();
      for (JumpLaneCtx* ctx : live) {
        if (!ctx->jump_mode) {
          naive.push_back(ctx);
          naive_vals.push_back(
              static_cast<const char*>(plane.lane_raw(ctx->lane)));
        }
      }
      const std::size_t nn = naive.size();
      // Draw phase: run_batch's lane-major stripes (2-lane rng interleave
      // for the vertex scheme, cell prefetch for the apply phase).
      if (scheme == SelectionScheme::kVertex) {
        std::size_t i = 0;
        for (; i + 1 < nn; i += 2) {
          Rng ra = *naive[i]->rng;
          Rng rb = *naive[i + 1]->rng;
          block_start[i] = ra.state();
          block_start[i + 1] = rb.state();
          const char* vals_a = naive_vals[i];
          const char* vals_b = naive_vals[i + 1];
          VertexId* __restrict upd_a_out = &upd[i * kBlockSteps];
          VertexId* __restrict obs_a_out = &obs[i * kBlockSteps];
          VertexId* __restrict upd_b_out = &upd[(i + 1) * kBlockSteps];
          VertexId* __restrict obs_b_out = &obs[(i + 1) * kBlockSteps];
          for (std::uint64_t s = 0; s < block; ++s) {
            const auto upd_a = static_cast<VertexId>(ra.uniform_below(n));
            const auto upd_b = static_cast<VertexId>(rb.uniform_below(n));
            const auto row_a = graph.neighbors(upd_a);
            const auto row_b = graph.neighbors(upd_b);
            const VertexId obs_a = row_a[static_cast<std::size_t>(
                ra.uniform_below(row_a.size()))];
            const VertexId obs_b = row_b[static_cast<std::size_t>(
                rb.uniform_below(row_b.size()))];
            upd_a_out[s] = upd_a;
            obs_a_out[s] = obs_a;
            upd_b_out[s] = upd_b;
            obs_b_out[s] = obs_b;
            __builtin_prefetch(vals_a + upd_a * cell, 1);
            __builtin_prefetch(vals_a + obs_a * cell, 0);
            __builtin_prefetch(vals_b + upd_b * cell, 1);
            __builtin_prefetch(vals_b + obs_b * cell, 0);
          }
          *naive[i]->rng = ra;
          *naive[i + 1]->rng = rb;
        }
        for (; i < nn; ++i) {
          Rng& rng = *naive[i]->rng;
          block_start[i] = rng.state();
          const char* vals = naive_vals[i];
          const std::size_t base = i * kBlockSteps;
          for (std::uint64_t s = 0; s < block; ++s) {
            const auto updater = static_cast<VertexId>(rng.uniform_below(n));
            const auto row = graph.neighbors(updater);
            const VertexId observed = row[static_cast<std::size_t>(
                rng.uniform_below(row.size()))];
            upd[base + s] = updater;
            obs[base + s] = observed;
            __builtin_prefetch(vals + updater * cell, 1);
            __builtin_prefetch(vals + observed * cell, 0);
          }
        }
      } else {
        for (std::size_t i = 0; i < nn; ++i) {
          Rng& rng = *naive[i]->rng;
          block_start[i] = rng.state();
          const char* vals = naive_vals[i];
          const std::size_t base = i * kBlockSteps;
          for (std::uint64_t s = 0; s < block; ++s) {
            const Edge& edge =
                edges[static_cast<std::size_t>(rng.uniform_below(num_edges))];
            const bool forward = (rng.next() & 1u) != 0;
            const VertexId updater = forward ? edge.u : edge.v;
            const VertexId observed = forward ? edge.v : edge.u;
            upd[base + s] = updater;
            obs[base + s] = observed;
            __builtin_prefetch(vals + updater * cell, 1);
            __builtin_prefetch(vals + observed * cell, 0);
          }
        }
      }
      // Apply phase through the counted kernels: `changed` is the scalar
      // loop's per-step `next != own` tally, so the window bookkeeping is
      // exact.  A lane that reaches the stop spread finishes at clock +
      // applied, rewinding its stream if it stopped mid-block.
      bool stopped_any = false;
      const auto settle = [&](std::size_t i, OpinionPlane::AppliedSteps res) {
        JumpLaneCtx& ctx = *naive[i];
        ctx.window_steps += res.applied;
        ctx.window_effective += res.changed;
        ctx.effective_steps += res.changed;
        if (plane.spread(ctx.lane) <= stop_delta) {
          if (res.applied < block) {
            rewind_to(ctx, block_start[i], res.applied);
          }
          finalize_ctx(ctx, RunStatus::kCompleted, clock + res.applied);
          stopped_any = true;
        }
      };
      std::size_t i = 0;
      for (; i + 1 < nn; i += 2) {
        const auto [res_a, res_b] = plane.apply_steps_toward_pair_counted(
            naive[i]->lane, &upd[i * kBlockSteps], &obs[i * kBlockSteps],
            naive[i + 1]->lane, &upd[(i + 1) * kBlockSteps],
            &obs[(i + 1) * kBlockSteps], block, stop_delta);
        settle(i, res_a);
        settle(i + 1, res_b);
      }
      if (i < nn) {
        settle(i, plane.apply_steps_toward_counted(
                      naive[i]->lane, &upd[i * kBlockSteps],
                      &obs[i * kBlockSteps], block, stop_delta));
      }
      if (stopped_any) {
        prune();
      }
    }

    clock = horizon;

    // Event pass at the new clock: jump lanes whose due time arrived execute
    // their effective step; naive lanes run their window-boundary hysteresis
    // and the step-cap check, both of which land exactly here by the horizon
    // construction.
    bool retired_any = false;
    for (JumpLaneCtx* ctx_ptr : live) {
      JumpLaneCtx& ctx = *ctx_ptr;
      if (ctx.done) {
        continue;  // settled mid-advance before a prune-less exit above
      }
      if (ctx.jump_mode) {
        if (!ctx.armed || ctx.due != clock) {
          continue;
        }
        ctx.armed = false;
        // The effective step, routed through the batched sampler primitive
        // (a one-lane span): same draws, same conditional law as the scalar
        // tracker.sample_discordant_pair(rng).
        Rng* rng_ptr = ctx.rng;
        SelectedPair pair;
        ctx.tracker.sample_discordant_pairs(
            std::span<Rng* const>(&rng_ptr, 1), std::span<SelectedPair>(&pair, 1));
        const Opinion own = plane.opinion(ctx.lane, pair.updater);
        plane.set(ctx.lane, pair.updater,
                  DivProcess::updated_opinion(
                      own, plane.opinion(ctx.lane, pair.observed)));
        ctx.tracker.apply_move(pair.updater, own);
        ++ctx.effective_steps;
        if (ctx.metrics != nullptr) {
          ctx.metrics->lazy_steps_skipped += ctx.skipped;
          if (ctx.metrics->activity_stride > 0 &&
              ctx.effective_steps % ctx.metrics->activity_stride == 0) {
            ctx.metrics->record_activity(
                clock, ctx.tracker.active_probability(),
                ctx.tracker.total_discordant_pairs());
          }
        }
        const bool satisfied = plane.spread(ctx.lane) <= stop_delta;
        if (satisfied) {
          finalize_ctx(ctx, RunStatus::kCompleted, clock);
          retired_any = true;
          continue;
        }
        if (ctx.tracker.active_probability() > kJumpExitActiveProbability) {
          // Dense phase: drop to naive scheduled steps, tracker left stale
          // (still fresh here, so a switch entry carries exact activity).
          ctx.jump_mode = false;
          ++ctx.mode_switches;
          ctx.window_steps = 0;
          ctx.window_effective = 0;
          if (ctx.metrics != nullptr) {
            record_lane_switch(ctx, clock, /*jump_mode=*/false);
          }
        }
        if (clock == max_steps) {
          // The scalar loop condition fails before another draw; the mode
          // switch above (if any) is still counted, exactly as there.
          finalize_ctx(ctx, RunStatus::kCapped, clock);
          retired_any = true;
        }
      } else {
        if (ctx.window_steps == kNaiveWindow) {
          // A lane reaching the boundary satisfied finalized in settle(), so
          // the scalar's !satisfied guard holds implicitly here.
          if (ctx.window_effective <= kJumpEnterEffectiveMax) {
            ctx.tracker.rebuild_counts();
            ctx.jump_mode = true;
            ctx.armed = false;
            ++ctx.mode_switches;
            if (ctx.metrics != nullptr) {
              record_lane_switch(ctx, clock, /*jump_mode=*/true);
            }
          }
          ctx.window_steps = 0;
          ctx.window_effective = 0;
        }
        if (clock == max_steps) {
          finalize_ctx(ctx, RunStatus::kCapped, clock);
          retired_any = true;
        }
      }
    }
    if (retired_any) {
      prune();
    }
  }
  return results;
}

}  // namespace divlib
