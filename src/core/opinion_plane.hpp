// Structure-of-arrays opinion storage for lock-step multi-replica execution.
//
// A Monte-Carlo campaign runs B replicas of the SAME topology with different
// seeds.  Allocating B independent OpinionStates makes every replica re-walk
// the CSR graph alone: the hot path is memory-bound pointer chasing repeated
// B times, and the per-replica aggregate bookkeeping scatters across B heap
// objects.  An OpinionPlane stores all B opinion vectors in ONE lane-major
// array,
//
//   cells[lane * n + v]   (contiguous per lane)
//
// so a batch engine can interleave the lanes' independent random accesses
// (memory-level parallelism instead of serialized misses).
//
// The cells are BYTE-PACKED when they can be: a lane's opinions live in its
// fixed initial range [range_lo, range_hi], so as long as every lane's range
// spans at most 256 values each opinion is stored as the uint8 offset
// `value - range_lo`.  Both hot operations are invariant under that shift --
// equality/order compares and +-1 moves read the same in raw space -- so the
// kernels below never convert, and a 16-lane plane over 2^14 vertices is
// 256 KiB of cells instead of 1 MiB: it stays L2-resident where the
// full-width layout thrashes to L3 two random lines per step.  The first
// assign_lane() whose range is wider than 256 promotes the whole plane to
// full-width Opinion cells (promote_to_wide_), so arbitrary ranges still
// work, just without the packing.
//
// Per-lane aggregates -- counts, S, the degree-weighted sum behind Z, the
// active range -- are maintained with observably IDENTICAL semantics to
// OpinionState: any sequence of set() calls and block-kernel steps leaves
// lane L answering every accessor exactly as a solo OpinionState would after
// the same moves.  That equivalence is the foundation of the batch engine's
// lane-determinism contract.  (Derived aggregates are refreshed lazily on
// read -- see refresh_derived_ -- because none of them feed the stop rule.)
// Discordance is not tracked here: the jump engine keeps it per lane in a
// BasicDiscordanceTracker over a PlaneLaneView (below).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/opinion_state.hpp"
#include "graph/graph.hpp"

namespace divlib {

class OpinionPlane {
 public:
  // Allocates `lanes` unassigned lanes over `graph` (which must outlive the
  // plane).  Every lane must be assign_lane()d before use.
  OpinionPlane(const Graph& graph, unsigned lanes);

  const Graph& graph() const { return *graph_; }
  unsigned num_lanes() const { return static_cast<unsigned>(lanes_.size()); }
  VertexId num_vertices() const { return n_; }

  // Installs a lane's initial opinion vector (length n) and derives its
  // aggregates exactly as the OpinionState constructor would: the lane's
  // fixed range is the min/max of `opinions`.
  void assign_lane(unsigned lane, std::span<const Opinion> opinions);

  Opinion opinion(unsigned lane, VertexId v) const {
    const std::size_t at = static_cast<std::size_t>(lane) * n_ + v;
    if (wide_) {
      return values32_[at];
    }
    return static_cast<Opinion>(lanes_[lane].range_lo +
                                static_cast<Opinion>(values8_[at]));
  }
  // The lane's full opinion vector, materialized at full width -- exactly
  // the values a scalar OpinionState built from the same history would
  // hold.  (A span into storage is no longer possible: the cells may be
  // byte-packed.)
  std::vector<Opinion> lane_opinions(unsigned lane) const;

  // Raw lane base pointer + cell width for the batch engine's prefetches:
  // the cell for vertex v lives at lane_raw(lane) + v * cell_bytes().
  const void* lane_raw(unsigned lane) const {
    const std::size_t off = static_cast<std::size_t>(lane) * n_;
    if (wide_) {
      return static_cast<const void*>(values32_.data() + off);
    }
    return static_cast<const void*>(values8_.data() + off);
  }
  std::size_t cell_bytes() const { return wide_ ? sizeof(Opinion) : 1; }

  // Reassigns vertex v in one lane.  Observably equivalent to
  // OpinionState::set() (same out_of_range check, same counts and
  // active-extreme maintenance, and every derived accessor -- sum, z_total,
  // num_active -- returns the same values), but the derived aggregates are
  // NOT updated inline: none of them feed the stop rule, so only the value
  // histogram and the active extremes are maintained per write and the rest
  // is recomputed on first access after a write (see refresh_derived_).
  void set(unsigned lane, VertexId v, Opinion value) {
    Lane& state = lanes_[lane];
    if (value < state.range_lo || value > state.range_hi) {
      throw std::out_of_range("OpinionPlane::set: value outside initial range");
    }
    const Opinion old = opinion(lane, v);
    if (old == value) {
      return;
    }
    store_(lane, v, value);
    apply_histogram_(state, old, value);
  }

  // max_active - min_active: the quantity every stop rule thresholds.
  Opinion spread(unsigned lane) const {
    return lanes_[lane].max_active - lanes_[lane].min_active;
  }

  // Applies `count` pull-moves to one lane -- step s moves vertex upd[s]
  // one unit toward the lane's CURRENT opinion of vertex obs[s] -- and stops
  // early as soon as max_active - min_active <= stop_delta.  Step-for-step
  // equivalent to
  //
  //   for s: own = opinion(lane, upd[s]), seen = opinion(lane, obs[s]),
  //          own != seen && set(lane, upd[s], own < seen ? own + 1 : own - 1),
  //          stop check
  //
  // but specialized into a block kernel: this is the lane engines' innermost
  // loop.  The result reports how many steps were applied (the stop rule is
  // re-checkable by the caller via spread()) and how many of them CHANGED
  // the updater's opinion (the jump chain's window_effective currency).
  // The histogram is DEFERRED: the kernel runs in two passes per sub-block.
  // Pass 1 is the bare cell chain (read old/seen, branchless +-1, store) with
  // the old/new cells logged to a pair of stack arrays; pass 2 merges the
  // logs into the histogram and tallies changed steps.  Splitting the passes
  // breaks the loop-carried dependence between the cell store and the
  // histogram read-modify-write that a per-step kernel serializes on (the
  // batch engine's serial bottleneck, DESIGN.md "Deferred-histogram apply
  // kernels"), and the merge pass is a straight-line gather the compiler
  // can vectorize.  The deferred histogram cannot detect a mid-block stop,
  // so the kernel leans on a monotonicity invariant of the pull-move: every
  // write lands inside the current active range, hence min_active is
  // nondecreasing, max_active is nonincreasing, and the spread is
  // nonincreasing -- the end-of-block spread dips to stop_delta if and only
  // if some step inside the block crossed it.  When that (rare, at most
  // once per lane per run) probe fires, the sub-block is reverted from the
  // logs and replayed through the exact per-step kernel (apply_block_) to
  // land on the precise stopping step.
  struct AppliedSteps {
    std::uint64_t applied = 0;  // steps executed (== count unless stopped)
    std::uint64_t changed = 0;  // applied steps where the opinion moved
  };
  AppliedSteps apply_steps_toward_counted(unsigned lane,
                                          const VertexId* __restrict upd,
                                          const VertexId* __restrict obs,
                                          std::uint64_t count,
                                          Opinion stop_delta) {
    const std::size_t off = static_cast<std::size_t>(lane) * n_;
    Lane& state = lanes_[lane];
    if (wide_) {
      return apply_block_deferred_<Opinion>(values32_.data() + off, state,
                                            state.range_lo, upd, obs, count,
                                            stop_delta);
    }
    return apply_block_deferred_<std::uint8_t>(values8_.data() + off, state,
                                               0, upd, obs, count, stop_delta);
  }

  // Two-lane counted variant: interleaves the two lanes' pass-1 cell chains
  // (two independent store-to-load chains overlap in the core) and merges
  // each lane's histogram separately.  When one lane stops mid-block the
  // other's remaining steps run through the single-lane counted kernel; the
  // observable effect is exactly two independent apply_steps_toward_counted
  // calls.  Requires lane_a != lane_b.
  std::pair<AppliedSteps, AppliedSteps> apply_steps_toward_pair_counted(
      unsigned lane_a, const VertexId* __restrict upd_a,
      const VertexId* __restrict obs_a, unsigned lane_b,
      const VertexId* __restrict upd_b, const VertexId* __restrict obs_b,
      std::uint64_t count, Opinion stop_delta) {
    const std::size_t off_a = static_cast<std::size_t>(lane_a) * n_;
    const std::size_t off_b = static_cast<std::size_t>(lane_b) * n_;
    Lane& state_a = lanes_[lane_a];
    Lane& state_b = lanes_[lane_b];
    if (wide_) {
      return apply_block_pair_deferred_<Opinion>(
          values32_.data() + off_a, state_a, state_a.range_lo, upd_a, obs_a,
          values32_.data() + off_b, state_b, state_b.range_lo, upd_b, obs_b,
          count, stop_delta);
    }
    return apply_block_pair_deferred_<std::uint8_t>(
        values8_.data() + off_a, state_a, 0, upd_a, obs_a,
        values8_.data() + off_b, state_b, 0, upd_b, obs_b, count, stop_delta);
  }

  // --- per-lane aggregates, mirroring the OpinionState accessors ---
  // The derived ones (num_active, sum, z_total) refresh
  // themselves on first read after a write; they are finalize/analysis
  // surface, not hot-loop state.
  Opinion range_lo(unsigned lane) const { return lanes_[lane].range_lo; }
  Opinion range_hi(unsigned lane) const { return lanes_[lane].range_hi; }
  Opinion min_active(unsigned lane) const { return lanes_[lane].min_active; }
  Opinion max_active(unsigned lane) const { return lanes_[lane].max_active; }
  int num_active(unsigned lane) const {
    refresh_derived_(lane);
    return lanes_[lane].num_active;
  }
  bool is_consensus(unsigned lane) const {
    return lanes_[lane].min_active == lanes_[lane].max_active;
  }
  std::int64_t sum(unsigned lane) const {
    refresh_derived_(lane);
    return lanes_[lane].sum;
  }
  // n * sum_v pi_v X_v, as OpinionState::z_total().
  double z_total(unsigned lane) const;

 private:
  struct Lane {
    Opinion range_lo = 0;
    Opinion range_hi = 0;
    Opinion min_active = 0;
    Opinion max_active = 0;
    int num_active = 0;
    std::int64_t sum = 0;
    std::int64_t degree_weighted_sum = 0;
    std::vector<std::int64_t> counts;  // indexed by value - range_lo
    // False after any write; num_active/sum/degree_* are stale until
    // refresh_derived_ recomputes them from the cells and counts.
    bool derived_fresh = false;
  };

  void store_(unsigned lane, VertexId v, Opinion value) {
    const std::size_t at = static_cast<std::size_t>(lane) * n_ + v;
    if (wide_) {
      values32_[at] = value;
    } else {
      values8_[at] =
          static_cast<std::uint8_t>(value - lanes_[lane].range_lo);
    }
  }

  // Histogram + active-extreme maintenance for set(): everything the stop
  // rule reads stays exact per write, everything else is deferred.
  void apply_histogram_(Lane& state, Opinion old, Opinion value) {
    const auto old_idx = static_cast<std::size_t>(old - state.range_lo);
    const auto new_idx = static_cast<std::size_t>(value - state.range_lo);
    --state.counts[old_idx];
    ++state.counts[new_idx];
    state.derived_fresh = false;
    if (value < state.min_active) {
      state.min_active = value;
    }
    if (value > state.max_active) {
      state.max_active = value;
    }
    if (state.counts[old_idx] == 0) {
      if (old == state.min_active) {
        Opinion probe = state.min_active;
        while (state.counts[static_cast<std::size_t>(
                   probe - state.range_lo)] == 0) {
          ++probe;  // at least one nonzero count always exists
        }
        state.min_active = probe;
      }
      if (old == state.max_active) {
        Opinion probe = state.max_active;
        while (state.counts[static_cast<std::size_t>(
                   probe - state.range_lo)] == 0) {
          --probe;
        }
        state.max_active = probe;
      }
    }
  }

  // The exact per-step block kernel a stopping sub-block of the deferred
  // kernel replays through, templated over the cell type so packed lanes
  // never widen in the loop.  All arithmetic runs in
  // CELL space: compares and +-1 moves are invariant under the packing
  // shift, the histogram index is cell - off (`off` is range_lo for
  // full-width cells, 0 for packed ones), and the active extremes are
  // tracked as cells and converted back on write-out.  The lane's base
  // pointer, histogram pointer, and extremes live in locals for the whole
  // block: a per-step cell store would otherwise force the compiler to
  // re-load every member it cannot prove disjoint (the __restrict
  // qualifiers likewise let the next step's upd/obs loads hoist above the
  // store).
  template <typename Cell>
  std::uint64_t apply_block_(Cell* __restrict vals, Lane& state, Opinion off,
                             const VertexId* __restrict upd,
                             const VertexId* __restrict obs,
                             std::uint64_t count, Opinion stop_delta) {
    std::int64_t* const counts = state.counts.data();
    // cell = value - shift;  shift is 0 for full-width, range_lo for packed.
    const Opinion shift = state.range_lo - off;
    Opinion min_cell = state.min_active - shift;
    Opinion max_cell = state.max_active - shift;
    state.derived_fresh = false;
    std::uint64_t applied = count;
    for (std::uint64_t s = 0; s < count; ++s) {
      const VertexId v = upd[s];
      const auto old = static_cast<Opinion>(vals[v]);
      const auto seen = static_cast<Opinion>(vals[obs[s]]);
      const Opinion value = old + static_cast<Opinion>(old < seen) -
                            static_cast<Opinion>(old > seen);
      vals[v] = static_cast<Cell>(value);
      const auto old_idx = static_cast<std::size_t>(old - off);
      --counts[old_idx];
      ++counts[static_cast<std::size_t>(value - off)];
      if (value < min_cell) {
        min_cell = value;
      }
      if (value > max_cell) {
        max_cell = value;
      }
      if (counts[old_idx] == 0) [[unlikely]] {
        if (old == min_cell) {
          while (counts[static_cast<std::size_t>(min_cell - off)] == 0) {
            ++min_cell;
          }
        }
        if (old == max_cell) {
          while (counts[static_cast<std::size_t>(max_cell - off)] == 0) {
            --max_cell;
          }
        }
      }
      if (max_cell - min_cell <= stop_delta) [[unlikely]] {
        applied = s + 1;
        break;
      }
    }
    state.min_active = min_cell + shift;
    state.max_active = max_cell + shift;
    return applied;
  }

  // Sub-block size for the deferred kernels: the old/new logs live on the
  // stack, and the stop probe runs once per sub-block, so the size trades
  // merge-pass batching against post-stop overshoot (work done past the
  // stopping step is reverted and replayed).  32 matches the batch
  // engine's draw-block size.
  static constexpr std::uint64_t kDeferredBlock = 32;

  // Deferred-histogram block kernel behind apply_steps_toward_counted.
  // See the public comment for the invariant that makes the end-of-block
  // stop probe exact.
  template <typename Cell>
  AppliedSteps apply_block_deferred_(Cell* __restrict vals, Lane& state,
                                     Opinion off,
                                     const VertexId* __restrict upd,
                                     const VertexId* __restrict obs,
                                     std::uint64_t count, Opinion stop_delta) {
    std::int64_t* const counts = state.counts.data();
    const Opinion shift = state.range_lo - off;
    state.derived_fresh = false;
    AppliedSteps out;
    while (out.applied < count) {
      const std::uint64_t block =
          std::min<std::uint64_t>(kDeferredBlock, count - out.applied);
      const VertexId* const bu = upd + out.applied;
      const VertexId* const bo = obs + out.applied;
      Cell old_log[kDeferredBlock];
      Cell new_log[kDeferredBlock];
      // Pass 1: the bare cell chain.  No histogram traffic, so the only
      // loop-carried dependence is the (unavoidable) possibility that step
      // s+1 reads the cell step s wrote.
      for (std::uint64_t s = 0; s < block; ++s) {
        const VertexId v = bu[s];
        const auto old = static_cast<Opinion>(vals[v]);
        const auto seen = static_cast<Opinion>(vals[bo[s]]);
        const Opinion value = old + static_cast<Opinion>(old < seen) -
                              static_cast<Opinion>(old > seen);
        vals[v] = static_cast<Cell>(value);
        old_log[s] = static_cast<Cell>(old);
        new_log[s] = static_cast<Cell>(value);
      }
      // Pass 2: merge the logs into the histogram and count moved steps.
      std::uint64_t changed = 0;
      for (std::uint64_t s = 0; s < block; ++s) {
        --counts[static_cast<std::size_t>(
            static_cast<Opinion>(old_log[s]) - off)];
        ++counts[static_cast<std::size_t>(
            static_cast<Opinion>(new_log[s]) - off)];
        changed += old_log[s] != new_log[s];
      }
      // Exact end-of-block extremes: the active range only ever shrinks
      // under pull-moves, so probing inward from the pre-block extremes
      // lands on the true post-block extremes.
      Opinion min_cell = state.min_active - shift;
      Opinion max_cell = state.max_active - shift;
      while (counts[static_cast<std::size_t>(min_cell - off)] == 0) {
        ++min_cell;
      }
      while (counts[static_cast<std::size_t>(max_cell - off)] == 0) {
        --max_cell;
      }
      if (max_cell - min_cell <= stop_delta) [[unlikely]] {
        // Some step inside this sub-block crossed the stop rule.  Revert
        // the whole sub-block from the logs (reverse order handles repeated
        // updaters; the extremes were never committed) and replay it
        // through the exact kernel to find the precise stopping step.
        for (std::uint64_t s = block; s-- > 0;) {
          vals[bu[s]] = old_log[s];
        }
        for (std::uint64_t s = 0; s < block; ++s) {
          ++counts[static_cast<std::size_t>(
              static_cast<Opinion>(old_log[s]) - off)];
          --counts[static_cast<std::size_t>(
              static_cast<Opinion>(new_log[s]) - off)];
        }
        const std::uint64_t applied =
            apply_block_<Cell>(vals, state, off, bu, bo, block, stop_delta);
        // The replay recomputes the same values, so the logs still describe
        // the applied prefix.
        for (std::uint64_t s = 0; s < applied; ++s) {
          out.changed += old_log[s] != new_log[s];
        }
        out.applied += applied;
        return out;
      }
      state.min_active = min_cell + shift;
      state.max_active = max_cell + shift;
      out.applied += block;
      out.changed += changed;
    }
    return out;
  }

  template <typename Cell>
  std::pair<AppliedSteps, AppliedSteps> apply_block_pair_deferred_(
      Cell* __restrict vals_a, Lane& state_a, Opinion off_a,
      const VertexId* __restrict upd_a, const VertexId* __restrict obs_a,
      Cell* __restrict vals_b, Lane& state_b, Opinion off_b,
      const VertexId* __restrict upd_b, const VertexId* __restrict obs_b,
      std::uint64_t count, Opinion stop_delta) {
    AppliedSteps out_a;
    AppliedSteps out_b;
    std::uint64_t done = 0;
    while (done < count) {
      const std::uint64_t block =
          std::min<std::uint64_t>(kDeferredBlock, count - done);
      const VertexId* const bu_a = upd_a + done;
      const VertexId* const bo_a = obs_a + done;
      const VertexId* const bu_b = upd_b + done;
      const VertexId* const bo_b = obs_b + done;
      Cell old_a[kDeferredBlock];
      Cell new_a[kDeferredBlock];
      Cell old_b[kDeferredBlock];
      Cell new_b[kDeferredBlock];
      // Interleaved pass 1: two independent cell chains overlap in the
      // core where one alone serializes on store-to-load forwarding.
      for (std::uint64_t s = 0; s < block; ++s) {
        const VertexId va = bu_a[s];
        const VertexId vb = bu_b[s];
        const auto oa = static_cast<Opinion>(vals_a[va]);
        const auto ob = static_cast<Opinion>(vals_b[vb]);
        const auto sa = static_cast<Opinion>(vals_a[bo_a[s]]);
        const auto sb = static_cast<Opinion>(vals_b[bo_b[s]]);
        const Opinion na = oa + static_cast<Opinion>(oa < sa) -
                           static_cast<Opinion>(oa > sa);
        const Opinion nb = ob + static_cast<Opinion>(ob < sb) -
                           static_cast<Opinion>(ob > sb);
        vals_a[va] = static_cast<Cell>(na);
        vals_b[vb] = static_cast<Cell>(nb);
        old_a[s] = static_cast<Cell>(oa);
        new_a[s] = static_cast<Cell>(na);
        old_b[s] = static_cast<Cell>(ob);
        new_b[s] = static_cast<Cell>(nb);
      }
      // Per-lane merge + stop probe, each lane independent: a lane that
      // stopped reverts and replays exactly as the single-lane kernel, and
      // its partner finishes its remaining steps through that kernel.
      const auto settle_lane =
          [&](Cell* __restrict vals, Lane& state, Opinion off,
              const Cell* old_log, const Cell* new_log,
              const VertexId* __restrict bu, const VertexId* __restrict bo,
              AppliedSteps& out) -> bool {
        std::int64_t* const counts = state.counts.data();
        const Opinion shift = state.range_lo - off;
        state.derived_fresh = false;
        std::uint64_t changed = 0;
        for (std::uint64_t s = 0; s < block; ++s) {
          --counts[static_cast<std::size_t>(
              static_cast<Opinion>(old_log[s]) - off)];
          ++counts[static_cast<std::size_t>(
              static_cast<Opinion>(new_log[s]) - off)];
          changed += old_log[s] != new_log[s];
        }
        Opinion min_cell = state.min_active - shift;
        Opinion max_cell = state.max_active - shift;
        while (counts[static_cast<std::size_t>(min_cell - off)] == 0) {
          ++min_cell;
        }
        while (counts[static_cast<std::size_t>(max_cell - off)] == 0) {
          --max_cell;
        }
        if (max_cell - min_cell <= stop_delta) [[unlikely]] {
          for (std::uint64_t s = block; s-- > 0;) {
            vals[bu[s]] = old_log[s];
          }
          for (std::uint64_t s = 0; s < block; ++s) {
            ++counts[static_cast<std::size_t>(
                static_cast<Opinion>(old_log[s]) - off)];
            --counts[static_cast<std::size_t>(
                static_cast<Opinion>(new_log[s]) - off)];
          }
          const std::uint64_t applied =
              apply_block_<Cell>(vals, state, off, bu, bo, block, stop_delta);
          for (std::uint64_t s = 0; s < applied; ++s) {
            out.changed += old_log[s] != new_log[s];
          }
          out.applied += applied;
          return true;  // stopped
        }
        state.min_active = min_cell + shift;
        state.max_active = max_cell + shift;
        out.applied += block;
        out.changed += changed;
        return false;
      };
      const bool stop_a = settle_lane(vals_a, state_a, off_a, old_a, new_a,
                                      bu_a, bo_a, out_a);
      const bool stop_b = settle_lane(vals_b, state_b, off_b, old_b, new_b,
                                      bu_b, bo_b, out_b);
      done += block;
      if (stop_a || stop_b) [[unlikely]] {
        if (!stop_a && done < count) {
          const AppliedSteps tail = apply_block_deferred_<Cell>(
              vals_a, state_a, off_a, upd_a + done, obs_a + done,
              count - done, stop_delta);
          out_a.applied += tail.applied;
          out_a.changed += tail.changed;
        }
        if (!stop_b && done < count) {
          const AppliedSteps tail = apply_block_deferred_<Cell>(
              vals_b, state_b, off_b, upd_b + done, obs_b + done,
              count - done, stop_delta);
          out_b.applied += tail.applied;
          out_b.changed += tail.changed;
        }
        return {out_a, out_b};
      }
    }
    return {out_a, out_b};
  }

  // Recomputes the deferred aggregates for one lane: num_active and sum
  // from the counts histogram (O(k)), the degree-weighted sum from one walk
  // over the lane's cells (O(n)).  Called from the derived accessors;
  // logically const, hence the mutable lanes_.
  void refresh_derived_(unsigned lane) const;

  // Re-encodes every lane's cells at full width; called by the first
  // assign_lane whose range spans more than 256 values.
  void promote_to_wide_();

  const Graph* graph_;
  VertexId n_ = 0;
  // Lane-major cells: exactly one of the two vectors is in use (wide_
  // selects).  Packed cells hold value - range_lo of their lane.
  std::vector<std::uint8_t> values8_;
  std::vector<Opinion> values32_;
  bool wide_ = false;
  mutable std::vector<Lane> lanes_;
};

// A single lane of an OpinionPlane presented through the read-only state
// surface BasicDiscordanceTracker consumes: graph topology, the lane's
// current opinions, and its fixed range.  The view is a pointer-sized
// adapter, not a copy -- tracker reads always see the lane's live cells, so
// a per-lane tracker over a view stays exactly as coherent with its state
// as a scalar tracker over an OpinionState (provided every move is mirrored
// via apply_move, the same contract the scalar tracker imposes).
class PlaneLaneView {
 public:
  PlaneLaneView(const OpinionPlane& plane, unsigned lane)
      : plane_(&plane), lane_(lane) {}

  const Graph& graph() const { return plane_->graph(); }
  VertexId num_vertices() const { return plane_->num_vertices(); }
  Opinion opinion(VertexId v) const { return plane_->opinion(lane_, v); }
  Opinion range_lo() const { return plane_->range_lo(lane_); }
  Opinion range_hi() const { return plane_->range_hi(lane_); }

 private:
  const OpinionPlane* plane_;
  unsigned lane_;
};

}  // namespace divlib
