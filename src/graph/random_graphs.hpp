// Random graph models.
//
// These are the expander families in the paper's "Graphs with small second
// eigenvalue" section: random d-regular graphs (lambda = O(1/sqrt(d)) whp)
// and Erdos-Renyi G(n,p) with np >= 2(1+o(1)) log n
// (lambda <= (1+o(1)) 2/sqrt(np) whp).  Watts-Strogatz and Barabasi-Albert
// are included as additional realistic network topologies for the examples.
//
// make_connected_random_regular takes an optional CancelToken (only its
// inline poll is used, so div_graph needs no link dependency on div_core):
// it polls it between attempts, every few tens of thousands of stubs and
// inside the CSR build, drawing nothing from the rng to do so, and throws
// OperationCancelled once it fires.  A million-vertex build takes seconds,
// and SIGINT/SIGTERM should not wait for it.
#pragma once

#include "core/cancel.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace divlib {

// Erdos-Renyi G(n,p): each of the C(n,2) pairs is an edge independently with
// probability p.  Uses geometric skipping, so the cost is O(n + m).
Graph make_gnp(VertexId n, double p, Rng& rng);

// As make_gnp but resamples until the graph is connected (throws after
// `max_attempts` failures).  Intended for p above the connectivity threshold.
Graph make_connected_gnp(VertexId n, double p, Rng& rng, int max_attempts = 200);

// Default attempt budget of the random d-regular generators.
inline constexpr int kRegularMaxAttempts = 5000;

// Random d-regular graph via the configuration model: a uniform pairing of
// n*d stubs, whose self-loops and multi-edges are then repaired by
// degree-preserving double-edge swaps against random simple edges.  An
// attempt whose repair stalls is discarded and a fresh pairing drawn.
// d = n - 1 returns K_n (the only simple (n-1)-regular graph) without
// drawing from `rng`.  Requires n*d even, 1 <= d < n.  Throws
// std::runtime_error after `max_attempts` stalled attempts.
Graph make_random_regular(VertexId n, std::uint32_t d, Rng& rng,
                          int max_attempts = kRegularMaxAttempts);

// As make_random_regular but additionally requires connectivity (whp
// immediate for d >= 3).  The error after `max_attempts` says how many
// attempts stalled in the repair and how many were simple but disconnected.
// Throws OperationCancelled when `cancel` fires.
Graph make_connected_random_regular(VertexId n, std::uint32_t d, Rng& rng,
                                    int max_attempts = kRegularMaxAttempts,
                                    const CancelToken* cancel = nullptr);

// Watts-Strogatz small world: ring lattice with k nearest neighbors per side
// (degree 2k), each edge rewired with probability beta.  Rewiring preserves
// simplicity; the graph may become disconnected for large beta.
Graph make_watts_strogatz(VertexId n, std::uint32_t k, double beta, Rng& rng);

// Barabasi-Albert preferential attachment: start from a clique on
// `attach + 1` vertices, then each new vertex attaches to `attach` distinct
// existing vertices chosen proportionally to degree.
Graph make_barabasi_albert(VertexId n, std::uint32_t attach, Rng& rng);

}  // namespace divlib
