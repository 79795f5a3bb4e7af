// Incremental per-vertex discordance bookkeeping over an opinion state:
//
//   disc(v) = #{w in N(v) : X_w != X_v}
//
// letting the jump-chain engine sample the updater of the next *effective*
// (state-changing) interaction with the exact conditional law of the
// scheduled process:
//
//   vertex scheme: P(step selects discordant (v, *)) = disc(v)/(n d(v))
//                  -> weight(v) = disc(v)/d(v), active prob = total/n
//   edge scheme:   P(step selects discordant (v, *)) = disc(v)/2m
//                  -> weight(v) = disc(v),      active prob = total/2m
//
// and in both schemes the observed neighbor is uniform among v's discordant
// neighbors.  Two internal representations back the same API:
//
//   * vertex scheme: a Fenwick-backed DynamicWeightedSampler over
//     disc(v)/d(v) -- the weights are genuinely non-uniform, so sampling is
//     O(log n) and maintenance O(d(v) log n) per move.
//   * edge scheme: the conditional law is *uniform* over ordered discordant
//     pairs, so a swap-remove array of discordant edge ids suffices --
//     sampling is one uniform draw plus a coin flip and maintenance is O(1)
//     integer work per changed relation, with no floating point anywhere.
//     This is what makes the jump engine ~an order of magnitude faster than
//     the naive loop at large n instead of merely breaking even.
//
// The tracker must see every mutation of the state: call apply_move()
// immediately after each state mutation with the pre-move opinion, or the
// counts go stale (checked only by tests, not at runtime -- this is the
// innermost loop).
//
// The tracker is a template over its read-only state surface so the SAME
// bookkeeping serves both the scalar engine (State = OpinionState) and the
// lane jump engine (run_lane_jump, State = OpinionPlane).  The surface a
// State must provide: graph(), num_vertices(), opinion(v), range_lo(),
// range_hi().
// Every member stays bit-identical across instantiations -- the lane
// engine's draws reproduce the scalar tracker's exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/opinion_state.hpp"
#include "core/selection.hpp"
#include "rng/alias_table.hpp"
#include "rng/dynamic_weighted_sampler.hpp"

namespace divlib {

template <typename State>
class BasicDiscordanceTracker {
 public:
  // Builds the counts in O(n + m log d).  The state must outlive the tracker.
  BasicDiscordanceTracker(const State& state, SelectionScheme scheme)
      : state_(&state), scheme_(scheme) {
    const Graph& graph = state.graph();
    validate_for_selection(graph, scheme);
    const VertexId n = graph.num_vertices();
    if (scheme_ == SelectionScheme::kVertex) {
      disc_.assign(n, 0);
      rebuild_counts();
      rebuilds_ = 0;  // the constructor's initial build is not a resync
      return;
    }

    // Edge scheme: index every adjacency slot with its edge id so apply_move
    // can flip an edge's membership in O(1) while scanning v's row.  These
    // arrays depend only on the topology; the state-dependent parts live in
    // rebuild_counts() so the hybrid engine can resynchronize a stale tracker
    // without paying this O(m log d) build again.
    const auto edges = graph.edges();
    offsets_.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      offsets_[v + 1] = offsets_[v] + graph.degree(v);
    }
    slot_edge_.assign(graph.total_degree(), 0);
    edge_pos_.assign(edges.size(), kNotDiscordant);
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      for (const auto& [from, to] :
           {std::pair{edges[e].u, edges[e].v},
            std::pair{edges[e].v, edges[e].u}}) {
        const auto row = graph.neighbors(from);
        const auto it = std::lower_bound(row.begin(), row.end(), to);
        slot_edge_[offsets_[from] +
                   static_cast<std::uint64_t>(it - row.begin())] = e;
      }
    }
    discordant_.reserve(edges.size());
    discordant_uv_.reserve(edges.size());
    if (static_cast<std::int64_t>(state.range_hi()) - state.range_lo() <
        INT16_MAX) {
      mirror_.resize(n);
    }
    rebuild_counts();
    rebuilds_ = 0;  // the constructor's initial build is not a resync
  }

  SelectionScheme scheme() const { return scheme_; }

  // disc(v).  O(1) for the vertex scheme (maintained); O(d(v)) for the edge
  // scheme, which never needs per-vertex counts in its hot path and
  // recomputes them on demand instead.
  std::uint32_t discordance(VertexId v) const {
    if (scheme_ == SelectionScheme::kVertex) {
      return disc_[v];
    }
    const Opinion own = state_->opinion(v);
    std::uint32_t count = 0;
    for (const VertexId w : state_->graph().neighbors(v)) {
      count += state_->opinion(w) != own;
    }
    return count;
  }

  // sum_v disc(v) = number of *ordered* discordant pairs = twice the number
  // of discordant edges.  Exact (integer bookkeeping).
  std::uint64_t total_discordant_pairs() const { return total_pairs_; }
  bool frozen() const { return total_pairs_ == 0; }

  // Probability that one scheduled step of the underlying selection scheme
  // draws a discordant pair (the jump chain's success probability).
  double active_probability() const {
    if (scheme_ == SelectionScheme::kVertex) {
      // (1/n) sum_v disc(v)/d(v)
      return sampler_.total_weight() /
             static_cast<double>(state_->num_vertices());
    }
    // Each of the 2m ordered pairs is equally likely per scheduled step.
    return static_cast<double>(total_pairs_) /
           static_cast<double>(state_->graph().total_degree());
  }

  // Samples (updater, observed) with the scheduled law conditioned on
  // X_updater != X_observed.  Requires !frozen().
  SelectedPair sample_discordant_pair(Rng& rng) const {
    if (frozen()) {
      throw std::logic_error(
          "DiscordanceTracker: no discordant pairs to sample");
    }
    SelectedPair pair;
    if (scheme_ == SelectionScheme::kEdge) {
      // Uniform over the 2|discordant_| ordered discordant pairs: one draw
      // picks the edge (high bits) and the direction (low bit).
      const std::uint64_t draw = rng.uniform_below(
          2 * static_cast<std::uint64_t>(discordant_.size()));
      const Edge& edge = discordant_uv_[draw >> 1];
      pair.updater = (draw & 1) ? edge.v : edge.u;
      pair.observed = (draw & 1) ? edge.u : edge.v;
      return pair;
    }
    if (alias_fresh_) {
      // O(1) frozen-weight path: one uniform column plus one uniform01
      // instead of the Fenwick descent.  Same law over updaters, different
      // rng consumption (see freeze_alias below).
      pair.updater = static_cast<VertexId>(alias_.sample(rng));
      if (disc_[pair.updater] == 0) {
        // Numerically impossible unless the table outlived a weight change
        // the invalidation hooks somehow missed; fail loudly rather than
        // draw uniform_below(0) below.
        throw std::logic_error(
            "DiscordanceTracker: alias table sampled a concordant vertex");
      }
    } else {
      pair.updater = static_cast<VertexId>(sampler_.sample(rng));
    }
    const Opinion own = state_->opinion(pair.updater);
    // Uniform among the disc(v) discordant neighbors: pick a rank, then scan.
    std::uint32_t rank =
        static_cast<std::uint32_t>(rng.uniform_below(disc_[pair.updater]));
    for (const VertexId w : state_->graph().neighbors(pair.updater)) {
      if (state_->opinion(w) != own) {
        if (rank == 0) {
          pair.observed = w;
          return pair;
        }
        --rank;
      }
    }
    throw std::logic_error("DiscordanceTracker: counts are stale");
  }

  // O(1) static-weight sampling for the vertex scheme: freezes the CURRENT
  // disc(v)/d(v) weights into a Walker/Vose alias table (O(n) build); while
  // the table is fresh, sample_discordant_pair picks the updater through it
  // (one uniform column + one uniform01) instead of the O(log n) Fenwick
  // descent.  Any apply_move() or rebuild_counts() invalidates the table --
  // the weights moved -- and sampling falls back to the Fenwick sampler
  // until the next freeze, so correctness never depends on the caller
  // re-freezing.  The alias path draws the SAME law but consumes the rng
  // DIFFERENTLY than the Fenwick descent: opt in at a run/segment boundary,
  // not mid-stream, when bit-compatibility with unfrozen runs matters.
  // No-op for the edge scheme (its swap-remove array is already O(1)).
  // Requires !frozen() (an all-zero weight vector has no table).
  void freeze_alias() {
    if (scheme_ != SelectionScheme::kVertex) {
      return;  // edge-scheme sampling is already O(1); nothing to freeze
    }
    if (frozen()) {
      throw std::logic_error(
          "DiscordanceTracker::freeze_alias: no discordant pairs (all "
          "weights zero)");
    }
    const VertexId n = state_->num_vertices();
    std::vector<double> weights(n, 0.0);
    for (VertexId v = 0; v < n; ++v) {
      weights[v] = weight_of(v);
    }
    alias_ = AliasTable(weights);
    alias_fresh_ = true;
  }
  bool alias_frozen() const { return alias_fresh_; }

  // Call right after the state's set(v, new_value) with v's pre-move
  // opinion.  Updates disc(v), disc(u) for u in N(v), and the sampling
  // structure.
  void apply_move(VertexId v, Opinion before) {
    const Opinion after = state_->opinion(v);
    if (after == before) {
      return;
    }
    alias_fresh_ = false;  // the frozen weights no longer match
    const Graph& graph = state_->graph();
    if (scheme_ == SelectionScheme::kEdge) {
      const auto row = graph.neighbors(v);
      const std::uint64_t base = offsets_[v];
      if (!mirror_.empty()) {
        const auto before_rel =
            static_cast<std::int16_t>(before - state_->range_lo());
        const auto after_rel =
            static_cast<std::int16_t>(after - state_->range_lo());
        mirror_[v] = after_rel;
        // First pass: issue the (random) edge_pos_ accesses for every
        // flipping edge up front so they overlap instead of serializing
        // behind the swap-remove bookkeeping -- in a two-opinion phase all
        // d(v) edges flip, and these misses dominate the per-move cost.
        // The second pass re-reads mirror_/slot_edge_ from now-hot lines.
        for (std::size_t i = 0; i < row.size(); ++i) {
          const std::int16_t other = mirror_[row[i]];
          if ((other != before_rel) != (other != after_rel)) {
            __builtin_prefetch(&edge_pos_[slot_edge_[base + i]], 1);
          }
        }
        for (std::size_t i = 0; i < row.size(); ++i) {
          const std::int16_t other = mirror_[row[i]];
          // The edge flips membership only when the neighbor sits exactly
          // on the old or the new opinion.
          if ((other != before_rel) == (other != after_rel)) {
            continue;
          }
          const std::uint32_t edge_id = slot_edge_[base + i];
          if (other != after_rel) {
            add_discordant_edge(edge_id, v, row[i]);
          } else {
            remove_discordant_edge(edge_id);
          }
        }
      } else {
        for (std::size_t i = 0; i < row.size(); ++i) {
          const Opinion other = state_->opinion(row[i]);
          if ((other != before) == (other != after)) {
            continue;
          }
          const std::uint32_t edge_id = slot_edge_[base + i];
          if (other != after) {
            add_discordant_edge(edge_id, v, row[i]);
          } else {
            remove_discordant_edge(edge_id);
          }
        }
      }
      total_pairs_ = 2 * static_cast<std::uint64_t>(discordant_.size());
      return;
    }
    std::uint32_t own_count = 0;
    for (const VertexId u : graph.neighbors(v)) {
      const Opinion other = state_->opinion(u);
      own_count += other != after;
      const bool was = other != before;
      const bool now = other != after;
      if (was == now) {
        continue;
      }
      if (now) {
        ++disc_[u];
        ++total_pairs_;
      } else {
        --disc_[u];
        --total_pairs_;
      }
      sampler_.set_weight(u, weight_of(u));
    }
    total_pairs_ += own_count;
    total_pairs_ -= disc_[v];
    disc_[v] = own_count;
    sampler_.set_weight(v, weight_of(v));
  }

  // Recomputes all counts and sampling structures from the current state in
  // O(n + m), reusing the topology index built by the constructor.  The
  // hybrid engine deliberately lets the tracker go stale while it runs
  // scheduled steps natively (dense phases, where maintenance would cost
  // more than it saves) and calls this once when it drops back into jump
  // mode.
  void rebuild_counts() {
    ++rebuilds_;
    alias_fresh_ = false;  // the frozen weights no longer match
    const Graph& graph = state_->graph();
    const VertexId n = graph.num_vertices();
    if (scheme_ == SelectionScheme::kVertex) {
      total_pairs_ = 0;
      std::vector<double> weights(n, 0.0);
      for (VertexId v = 0; v < n; ++v) {
        const Opinion own = state_->opinion(v);
        std::uint32_t count = 0;
        for (const VertexId w : graph.neighbors(v)) {
          count += state_->opinion(w) != own;
        }
        disc_[v] = count;
        total_pairs_ += count;
        weights[v] = weight_of(v);
      }
      sampler_ = DynamicWeightedSampler(weights);
      return;
    }
    // Clearing through the stale membership list keeps this pass
    // O(|discordant|) instead of touching every edge_pos_ slot.
    for (const std::uint32_t e : discordant_) {
      edge_pos_[e] = kNotDiscordant;
    }
    discordant_.clear();
    discordant_uv_.clear();
    if (!mirror_.empty()) {
      for (VertexId v = 0; v < n; ++v) {
        mirror_[v] = static_cast<std::int16_t>(state_->opinion(v) -
                                               state_->range_lo());
      }
    }
    const auto edges = graph.edges();
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      if (state_->opinion(edges[e].u) != state_->opinion(edges[e].v)) {
        add_discordant_edge(e, edges[e].u, edges[e].v);
      }
    }
    total_pairs_ = 2 * static_cast<std::uint64_t>(discordant_.size());
  }

  // How many times rebuild_counts() has run (telemetry: each one is an
  // O(n + m) resync the hybrid engine paid for a naive->jump re-entry).
  std::uint64_t rebuilds() const { return rebuilds_; }

  // O(n + m) recomputation from scratch (test oracle / drift check).
  std::vector<std::uint32_t> recomputed_counts() const {
    const Graph& graph = state_->graph();
    std::vector<std::uint32_t> fresh(graph.num_vertices(), 0);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const Opinion own = state_->opinion(v);
      for (const VertexId w : graph.neighbors(v)) {
        fresh[v] += state_->opinion(w) != own;
      }
    }
    return fresh;
  }

 private:
  static constexpr std::uint32_t kNotDiscordant = 0xffffffffu;

  double weight_of(VertexId v) const {
    if (scheme_ == SelectionScheme::kVertex) {
      return static_cast<double>(disc_[v]) /
             static_cast<double>(state_->graph().degree(v));
    }
    return static_cast<double>(disc_[v]);
  }

  void add_discordant_edge(std::uint32_t edge_id, VertexId u, VertexId w) {
    edge_pos_[edge_id] = static_cast<std::uint32_t>(discordant_.size());
    discordant_.push_back(edge_id);
    discordant_uv_.push_back(Edge{u, w});
  }

  void remove_discordant_edge(std::uint32_t edge_id) {
    const std::uint32_t position = edge_pos_[edge_id];
    const std::uint32_t last = discordant_.back();
    discordant_[position] = last;
    discordant_uv_[position] = discordant_uv_.back();
    edge_pos_[last] = position;
    discordant_.pop_back();
    discordant_uv_.pop_back();
    edge_pos_[edge_id] = kNotDiscordant;
  }

  const State* state_;
  SelectionScheme scheme_;
  std::vector<std::uint32_t> disc_;
  std::uint64_t total_pairs_ = 0;
  std::uint64_t rebuilds_ = 0;

  // Vertex scheme only.  The Fenwick sampler is the always-valid dynamic
  // path; the alias table is a frozen O(1) snapshot of the same weights,
  // valid only while alias_fresh_ (no moves since freeze_alias()).
  DynamicWeightedSampler sampler_;
  AliasTable alias_;
  bool alias_fresh_ = false;

  // Edge scheme only: CSR offsets mirroring Graph's adjacency layout, the
  // edge id stored at each adjacency slot, the current discordant edge ids,
  // and each edge's position in that array (kNotDiscordant when absent).
  // discordant_uv_ carries the endpoints of discordant_[i] so sampling reads
  // a compact array that stays cache-resident (the discordant set is small
  // in the lazy phases where the jump engine runs) instead of a random slot
  // of the full O(m) edge list.  mirror_ is a compact copy of the opinions
  // (relative to the state's range floor) so the d(v) neighbor reads per
  // move stay inside L2 instead of touching the full-width opinion vector;
  // empty when the range is too wide, in which case apply_move reads the
  // state directly.
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> slot_edge_;
  std::vector<std::uint32_t> discordant_;
  std::vector<Edge> discordant_uv_;
  std::vector<std::uint32_t> edge_pos_;
  std::vector<std::int16_t> mirror_;
};

// The scalar engines' instantiation; compiled once in
// discordance_tracker.cpp so every TU including this header does not pay
// for (or duplicate) the codegen.
using DiscordanceTracker = BasicDiscordanceTracker<OpinionState>;
extern template class BasicDiscordanceTracker<OpinionState>;

}  // namespace divlib
