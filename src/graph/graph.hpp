// Immutable simple undirected graph in compressed sparse row (CSR) form.
//
// This is the substrate every voting process runs on.  The representation is
// optimized for the two sampling primitives the paper's processes need:
//   * vertex process:  uniform vertex v, then uniform neighbor of v
//     -> neighbors(v)[rng.uniform_below(degree(v))]
//   * edge process:    uniform edge, then uniform endpoint
//     -> edges()[rng.uniform_below(m)] plus a coin flip
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"

namespace divlib {

using VertexId = std::uint32_t;

struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  // Builds from an edge list over vertices [0, num_vertices).
  // Throws std::invalid_argument on self-loops, duplicate edges, or
  // out-of-range endpoints.  (Use GraphBuilder for incremental assembly.)
  // A million-vertex build is long enough to interrupt, so `cancel` (when
  // given) is polled every 65536 edges of the scatter pass and rows of the
  // sort pass; once it fires the build throws OperationCancelled.
  Graph(VertexId num_vertices, std::vector<Edge> edges,
        const CancelToken* cancel = nullptr);

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return edges_.size(); }

  std::uint32_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  // Flat list of undirected edges with u < v, in lexicographic (u, v) order
  // whatever order the constructor received them in.
  std::span<const Edge> edges() const { return edges_; }

  bool has_edge(VertexId u, VertexId v) const;

  // Sum of all degrees = 2m.
  std::uint64_t total_degree() const { return 2 * edges_.size(); }

  // Stationary distribution of the simple random walk: pi_v = d(v)/2m.
  double stationary(VertexId v) const;
  std::vector<double> stationary_distribution() const;
  double min_stationary() const;
  double max_stationary() const;

  std::uint32_t min_degree() const;
  std::uint32_t max_degree() const;
  double average_degree() const;
  bool is_regular() const;

  // Connectivity by a search over the whole vertex set.  `cancel` (when
  // given) is polled every 65536 vertices; once it fires the search throws
  // OperationCancelled.
  bool is_connected(const CancelToken* cancel = nullptr) const;

  // True when every vertex has at least one neighbor.
  bool has_isolated_vertices() const;

  // Short human-readable description ("n=100 m=450 deg=[3,12]").
  std::string summary() const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<std::uint32_t> offsets_;   // size n+1
  std::vector<VertexId> adjacency_;      // size 2m, sorted within each row
  std::vector<Edge> edges_;              // size m, u < v
};

}  // namespace divlib
