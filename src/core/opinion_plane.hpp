// Compact opinion storage for one replica of the lane kernels
// (engine/batch_engine).
//
// The cells are BYTE-PACKED when they can be: opinions live in the fixed
// initial range [range_lo, range_hi], so as long as that range spans at most
// 256 values each opinion is stored as the uint8 offset `value - range_lo`.
// Both hot operations are invariant under that shift -- equality/order
// compares and +-1 moves read the same in raw space -- so the kernels below
// never convert, and the cells take a quarter of the full-width footprint,
// so more of a large graph's cells stay cache-resident.  A wider initial
// range puts the plane on full-width Opinion cells; the choice is made once,
// at construction.
//
// The aggregates -- counts, S, the degree-weighted sum behind Z, the active
// range -- are maintained with observably IDENTICAL semantics to
// OpinionState: any sequence of set() calls and block-kernel steps leaves
// the plane answering every accessor exactly as an OpinionState would after
// the same moves.  That equivalence is the foundation of the lane kernels'
// bit-identity contract.  (Derived aggregates are refreshed lazily on read --
// see refresh_derived_ -- because none of them feed the stop rule.)
// Discordance is not tracked here: the jump engine keeps it in a
// BasicDiscordanceTracker<OpinionPlane>, for which the plane provides the
// read-only state surface (graph(), num_vertices(), opinion(v), range_lo(),
// range_hi()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/opinion_state.hpp"
#include "graph/graph.hpp"

namespace divlib {

class OpinionPlane {
 public:
  // Installs the initial opinion vector (length n) over `graph` (which must
  // outlive the plane) and derives the aggregates exactly as the
  // OpinionState constructor would: the fixed range is the min/max of
  // `opinions`.
  OpinionPlane(const Graph& graph, std::span<const Opinion> opinions);

  const Graph& graph() const { return *graph_; }
  VertexId num_vertices() const { return n_; }

  Opinion opinion(VertexId v) const {
    if (wide_) {
      return values32_[v];
    }
    return static_cast<Opinion>(range_lo_ + static_cast<Opinion>(values8_[v]));
  }
  // The full opinion vector, materialized at full width -- exactly the
  // values an OpinionState built from the same history would hold.  (A span
  // into storage is not possible: the cells may be byte-packed.)
  std::vector<Opinion> opinions() const;

  // Raw cell base pointer + cell width for the lane kernels' prefetches:
  // the cell for vertex v lives at raw() + v * cell_bytes().
  const void* raw() const {
    return wide_ ? static_cast<const void*>(values32_.data())
                 : static_cast<const void*>(values8_.data());
  }
  std::size_t cell_bytes() const { return wide_ ? sizeof(Opinion) : 1; }

  // Reassigns vertex v.  Observably equivalent to OpinionState::set() (same
  // out_of_range check, same counts and active-extreme maintenance, and
  // every derived accessor -- sum, z_total, num_active -- returns the same
  // values), but the derived aggregates are NOT updated inline: none of
  // them feed the stop rule, so only the value histogram and the active
  // extremes are maintained per write and the rest is recomputed on first
  // access after a write (see refresh_derived_).
  void set(VertexId v, Opinion value) {
    if (value < range_lo_ || value > range_hi_) {
      throw std::out_of_range("OpinionPlane::set: value outside initial range");
    }
    const Opinion old = opinion(v);
    if (old == value) {
      return;
    }
    if (wide_) {
      values32_[v] = value;
    } else {
      values8_[v] = static_cast<std::uint8_t>(value - range_lo_);
    }
    apply_histogram_(old, value);
  }

  // max_active - min_active: the quantity every stop rule thresholds.
  Opinion spread() const { return max_active_ - min_active_; }

  // Applies `count` pull-moves -- step s moves vertex upd[s] one unit
  // toward the CURRENT opinion of vertex obs[s] -- and stops early as soon
  // as max_active - min_active <= stop_delta.  Step-for-step equivalent to
  //
  //   for s: own = opinion(upd[s]), seen = opinion(obs[s]),
  //          own != seen && set(upd[s], own < seen ? own + 1 : own - 1),
  //          stop check
  //
  // but specialized into a block kernel: this is the lane kernels' innermost
  // loop.  The result reports how many steps were applied (the stop rule is
  // re-checkable by the caller via spread()) and how many of them CHANGED
  // the updater's opinion (the jump chain's window_effective currency).
  // The histogram is DEFERRED: the kernel runs in two passes per sub-block.
  // Pass 1 is the bare cell chain (read old/seen, branchless +-1, store) with
  // the old/new cells logged to a pair of stack arrays; pass 2 merges the
  // logs into the histogram and tallies changed steps.  Splitting the passes
  // breaks the loop-carried dependence between the cell store and the
  // histogram read-modify-write that a per-step kernel serializes on
  // (DESIGN.md "Deferred-histogram apply kernel"), and the merge pass is a
  // straight-line gather the compiler can vectorize.  The deferred histogram
  // cannot detect a mid-block stop, so the kernel leans on a monotonicity
  // invariant of the pull-move: every write lands inside the current active
  // range, hence min_active is nondecreasing, max_active is nonincreasing,
  // and the spread is nonincreasing -- the end-of-block spread dips to
  // stop_delta if and only if some step inside the block crossed it.  When
  // that (rare, at most once per run) probe fires, the sub-block is reverted
  // from the logs and replayed through the exact per-step kernel
  // (apply_block_) to land on the precise stopping step.
  struct AppliedSteps {
    std::uint64_t applied = 0;  // steps executed (== count unless stopped)
    std::uint64_t changed = 0;  // applied steps where the opinion moved
  };
  AppliedSteps apply_steps_toward_counted(const VertexId* __restrict upd,
                                          const VertexId* __restrict obs,
                                          std::uint64_t count,
                                          Opinion stop_delta) {
    if (wide_) {
      return apply_block_deferred_<Opinion>(values32_.data(), range_lo_, upd,
                                            obs, count, stop_delta);
    }
    return apply_block_deferred_<std::uint8_t>(values8_.data(), 0, upd, obs,
                                               count, stop_delta);
  }

  // --- aggregates, mirroring the OpinionState accessors ---
  // The derived ones (num_active, sum, z_total) refresh themselves on first
  // read after a write; they are finalize/analysis surface, not hot-loop
  // state.
  Opinion range_lo() const { return range_lo_; }
  Opinion range_hi() const { return range_hi_; }
  Opinion min_active() const { return min_active_; }
  Opinion max_active() const { return max_active_; }
  int num_active() const {
    refresh_derived_();
    return num_active_;
  }
  bool is_consensus() const { return min_active_ == max_active_; }
  std::int64_t sum() const {
    refresh_derived_();
    return sum_;
  }
  // n * sum_v pi_v X_v, as OpinionState::z_total().
  double z_total() const;

 private:
  // Histogram + active-extreme maintenance for set(): everything the stop
  // rule reads stays exact per write, everything else is deferred.
  void apply_histogram_(Opinion old, Opinion value) {
    const auto old_idx = static_cast<std::size_t>(old - range_lo_);
    const auto new_idx = static_cast<std::size_t>(value - range_lo_);
    --counts_[old_idx];
    ++counts_[new_idx];
    derived_fresh_ = false;
    if (value < min_active_) {
      min_active_ = value;
    }
    if (value > max_active_) {
      max_active_ = value;
    }
    if (counts_[old_idx] == 0) {
      if (old == min_active_) {
        Opinion probe = min_active_;
        while (counts_[static_cast<std::size_t>(probe - range_lo_)] == 0) {
          ++probe;  // at least one nonzero count always exists
        }
        min_active_ = probe;
      }
      if (old == max_active_) {
        Opinion probe = max_active_;
        while (counts_[static_cast<std::size_t>(probe - range_lo_)] == 0) {
          --probe;
        }
        max_active_ = probe;
      }
    }
  }

  // The exact per-step block kernel a stopping sub-block of the deferred
  // kernel replays through, templated over the cell type so packed planes
  // never widen in the loop.  All arithmetic runs in CELL space: compares
  // and +-1 moves are invariant under the packing shift, the histogram
  // index is cell - off (`off` is range_lo for full-width cells, 0 for
  // packed ones), and the active extremes are tracked as cells and
  // converted back on write-out.  The cell base pointer, histogram pointer,
  // and extremes live in locals for the whole block: a per-step cell store
  // would otherwise force the compiler to re-load every member it cannot
  // prove disjoint (the __restrict qualifiers likewise let the next step's
  // upd/obs loads hoist above the store).
  template <typename Cell>
  std::uint64_t apply_block_(Cell* __restrict vals, Opinion off,
                             const VertexId* __restrict upd,
                             const VertexId* __restrict obs,
                             std::uint64_t count, Opinion stop_delta) {
    std::int64_t* const counts = counts_.data();
    // cell = value - shift;  shift is 0 for full-width, range_lo for packed.
    const Opinion shift = range_lo_ - off;
    Opinion min_cell = min_active_ - shift;
    Opinion max_cell = max_active_ - shift;
    derived_fresh_ = false;
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
    min_active_ = min_cell + shift;
    max_active_ = max_cell + shift;
    return applied;
  }

  // Sub-block size for the deferred kernel: the old/new logs live on the
  // stack, and the stop probe runs once per sub-block, so the size trades
  // merge-pass batching against post-stop overshoot (work done past the
  // stopping step is reverted and replayed).  32 matches the lane kernels'
  // draw-block size.
  static constexpr std::uint64_t kDeferredBlock = 32;

  // Deferred-histogram block kernel behind apply_steps_toward_counted.
  // See the public comment for the invariant that makes the end-of-block
  // stop probe exact.
  template <typename Cell>
  AppliedSteps apply_block_deferred_(Cell* __restrict vals, Opinion off,
                                     const VertexId* __restrict upd,
                                     const VertexId* __restrict obs,
                                     std::uint64_t count, Opinion stop_delta) {
    std::int64_t* const counts = counts_.data();
    const Opinion shift = range_lo_ - off;
    derived_fresh_ = false;
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
      Opinion min_cell = min_active_ - shift;
      Opinion max_cell = max_active_ - shift;
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
            apply_block_<Cell>(vals, off, bu, bo, block, stop_delta);
        // The replay recomputes the same values, so the logs still describe
        // the applied prefix.
        for (std::uint64_t s = 0; s < applied; ++s) {
          out.changed += old_log[s] != new_log[s];
        }
        out.applied += applied;
        return out;
      }
      min_active_ = min_cell + shift;
      max_active_ = max_cell + shift;
      out.applied += block;
      out.changed += changed;
    }
    return out;
  }

  // Recomputes the deferred aggregates: num_active and sum from the counts
  // histogram (O(k)), the degree-weighted sum from one walk over the cells
  // (O(n)).  Called from the derived accessors; logically const, hence the
  // mutable members.
  void refresh_derived_() const;

  const Graph* graph_;
  VertexId n_ = 0;
  // Exactly one of the two vectors is in use (wide_ selects).  Packed cells
  // hold value - range_lo.
  std::vector<std::uint8_t> values8_;
  std::vector<Opinion> values32_;
  bool wide_ = false;
  Opinion range_lo_ = 0;
  Opinion range_hi_ = 0;
  Opinion min_active_ = 0;
  Opinion max_active_ = 0;
  std::vector<std::int64_t> counts_;  // indexed by value - range_lo
  // False after any write; num_active_/sum_/degree_weighted_sum_ are stale
  // until refresh_derived_ recomputes them from the cells and counts.
  mutable bool derived_fresh_ = false;
  mutable int num_active_ = 0;
  mutable std::int64_t sum_ = 0;
  mutable std::int64_t degree_weighted_sum_ = 0;
};

}  // namespace divlib
