#include "engine/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>

#include "core/discordance_tracker.hpp"
#include "core/div_process.hpp"
#include "engine/stop_condition.hpp"

namespace divlib {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pre-drawn step blocks.  A lane's rng stream does not depend on the
// opinion state -- per step the vertex scheme draws uniform_below(n) then
// uniform_below(degree(updater)) and the edge scheme uniform_below(m) then
// next(), all functions of the graph and the stream alone -- so a whole
// block of (updater, observed) pairs can be drawn, and every opinion cell it
// will touch prefetched, before the first application reads the plane.  By
// apply time each cell has had a block's worth of independent work to cover
// its miss.  A lane that stops mid-block (consensus; the step cap lands on a
// block boundary by construction) rewinds its rng to the block-start
// snapshot and re-executes exactly the draws of its completed steps
// (rewind_block), so its final stream position is bit-identical to the
// scalar engines'.
constexpr std::uint64_t kBlockSteps = 32;

// Cancellation drains a lane at a block boundary: one acquire load per step
// is measurable in a loop this tight, so tokens are polled every
// kCancelBlocks blocks (and always before the first step) -- a few dozen
// steps of extra drain latency against deadlines that are milliseconds at
// their tightest.
constexpr std::uint64_t kCancelBlocks = 8;

// Draws `count` scheduled (updater, observed) pairs from `rng` into upd/obs
// in select_pair's order, prefetching the cells the apply will read from
// the lane whose raw cells start at `vals` (stride `cell`).  The caller
// snapshots rng.state() first if it may need rewind_block.
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

// The scalar engines' finalize(): the lane's aggregate snapshot.
void fill_result(const OpinionPlane& plane, unsigned lane, RunStatus status,
                 std::uint64_t steps, RunResult& result) {
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
}

}  // namespace

std::vector<RunResult> run_batch(
    const Graph& graph, SelectionScheme scheme, OpinionPlane& plane,
    std::span<Rng> rngs, const RunOptions& options,
    std::span<const CancelToken* const> lane_cancels,
    std::span<RunMetrics* const> lane_metrics) {
  const unsigned lanes = plane.num_lanes();
  if (rngs.size() != lanes) {
    throw std::invalid_argument("run_batch: one rng per lane is required");
  }
  if (!lane_cancels.empty() && lane_cancels.size() != lanes) {
    throw std::invalid_argument(
        "run_batch: lane_cancels must be empty or one token slot per lane");
  }
  if (!lane_metrics.empty() && lane_metrics.size() != lanes) {
    throw std::invalid_argument(
        "run_batch: lane_metrics must be empty or one sink slot per lane");
  }
  if (options.trace_stride != 0) {
    throw std::invalid_argument(
        "run_batch records no traces; use the scalar engines for tracing");
  }
  if (options.metrics != nullptr) {
    throw std::invalid_argument(
        "run_batch records telemetry per lane; pass lane_metrics instead of "
        "RunOptions::metrics");
  }
  validate_for_selection(graph, scheme);
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
    fill_result(plane, lane, status, steps, results[lane]);
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
    std::size_t drawn = 0;
    if (scheme == SelectionScheme::kVertex) {
      // Lane pairs: a single lane's two draws per step form one serial
      // xoshiro dependency chain, so a lone stripe is latency-bound on the
      // generator.  Walking two lanes' streams together gives the core two
      // independent chains to overlap (the states are copied into locals so
      // they live in registers for the whole stripe; a full step-major
      // interleave of ALL lanes was tried and lost -- it round-trips every
      // state through memory each draw).
      for (; drawn + 1 < live; drawn += 2) {
        const std::size_t i = drawn;
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
          __builtin_prefetch(vals_a + upd_a * cell, 1);
          __builtin_prefetch(vals_a + obs_a * cell, 0);
          __builtin_prefetch(vals_b + upd_b * cell, 1);
          __builtin_prefetch(vals_b + obs_b * cell, 0);
        }
        *lane_rng[i] = ra;
        *lane_rng[i + 1] = rb;
      }
    }
    for (; drawn < live; ++drawn) {
      block_start[drawn] = lane_rng[drawn]->state();
      draw_block(graph, scheme, *lane_rng[drawn], lane_vals[drawn], cell,
                 &upd[drawn * kBlockSteps], &obs[drawn * kBlockSteps], block);
    }

    // Apply phase: per lane, its block's steps in draw order (in-block
    // rereads of a just-written cell see the write, exactly as the scalar
    // loop would).
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
          rewind_block(graph, scheme, *lane_rng[i], block_start[i], applied);
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

JumpRunResult run_lane_jump(const Graph& graph, SelectionScheme scheme,
                            OpinionPlane& plane, Rng& rng,
                            const RunOptions& options) {
  if (plane.num_lanes() != 1) {
    throw std::invalid_argument(
        "run_lane_jump: the plane must have exactly one lane");
  }
  if (options.trace_stride != 0) {
    throw std::invalid_argument(
        "run_lane_jump records no traces; use run_jump for tracing");
  }
  validate_for_selection(graph, scheme);
  const auto wall_start = Clock::now();
  RunMetrics* const metrics = options.metrics;
  const Opinion stop_delta = options.stop == StopKind::kConsensus ? 0 : 1;
  const std::uint64_t max_steps = options.max_steps;

  // As in run_jump: the tracker is built (and the launch entry stamped with
  // its activity) before the first stop check, and the run starts in jump
  // mode so a start that can never change state is diagnosed at once.
  const PlaneLaneView view(plane, 0);
  BasicDiscordanceTracker<PlaneLaneView> tracker(view, scheme);
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
    fill_result(plane, 0, status, steps, result);
    if (metrics != nullptr) {
      close_segment(jump_mode);
      metrics->wall_seconds_total = seconds_since(wall_start);
      metrics->scheduled_steps = steps;
      metrics->effective_steps = result.effective_steps;
      metrics->tracker_rebuilds = tracker.rebuilds();
    }
    return result;
  };
  if (plane.spread(0) <= stop_delta) {
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
  const char* const vals = static_cast<const char*>(plane.lane_raw(0));
  const std::size_t cell = plane.cell_bytes();
  std::array<VertexId, kBlockSteps> upd{};
  std::array<VertexId, kBlockSteps> obs{};

  // One iteration is one effective step in jump mode or one pre-drawn block
  // in naive mode; the cancel poll sits between iterations, every
  // kCancelBlocks of them, as in run_batch.
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
      const Opinion own = plane.opinion(0, pair.updater);
      plane.set(0, pair.updater,
                DivProcess::updated_opinion(
                    own, plane.opinion(0, pair.observed)));
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
      if (plane.spread(0) <= stop_delta) {
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
      // exact; a block that reaches the stop spread rewinds the stream to
      // the stopping step.
      const std::uint64_t block =
          std::min({kBlockSteps, kNaiveWindow - window_steps,
                    max_steps - clock});
      const std::array<std::uint64_t, 4> snapshot = rng.state();
      draw_block(graph, scheme, rng, vals, cell, upd.data(), obs.data(),
                 block);
      const OpinionPlane::AppliedSteps applied =
          plane.apply_steps_toward_counted(0, upd.data(), obs.data(), block,
                                           stop_delta);
      window_steps += applied.applied;
      window_effective += applied.changed;
      result.effective_steps += applied.changed;
      if (plane.spread(0) <= stop_delta) {
        if (applied.applied < block) {
          rewind_block(graph, scheme, rng, snapshot, applied.applied);
        }
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
