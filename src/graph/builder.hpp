// Incremental construction of simple undirected graphs.
//
// GraphBuilder tolerates duplicate add_edge calls (they are ignored) and
// reports attempted self-loops as errors, which makes the random-graph
// generators straightforward to write.
//
// The edge set is one flat open-addressing table of packed (u << 32) | v
// keys (u < v), probed linearly and kept at most half full.  Key 0 would be
// the self-loop (0, 0), so it marks an empty slot.  Removal shifts the rest
// of the probe run back instead of leaving a tombstone, so add, lookup and
// remove are all O(1) expected and the table never needs a cleanup pass.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace divlib {

class GraphBuilder {
 public:
  // `expected_edges` presizes the table so that many edges fit without a
  // rehash; the table still grows past it when needed.
  explicit GraphBuilder(VertexId num_vertices, std::size_t expected_edges = 0);

  // Returns true if the edge was new, false if it already existed.
  // Throws std::invalid_argument on self-loops or out-of-range endpoints.
  bool add_edge(VertexId u, VertexId v);

  bool has_edge(VertexId u, VertexId v) const;

  // Removes an edge if present; returns whether it existed.  O(1) expected.
  bool remove_edge(VertexId u, VertexId v);

  std::size_t num_edges() const { return size_; }
  VertexId num_vertices() const { return num_vertices_; }

  // Finalizes into an immutable Graph.  The builder may be reused afterwards
  // (it retains its contents).  `cancel` is polled as Graph's constructor
  // polls it.
  Graph build(const CancelToken* cancel = nullptr) const;

 private:
  static std::uint64_t key(VertexId u, VertexId v);
  std::size_t home(std::uint64_t packed) const;
  // The slot holding `packed`, or the empty slot where it would go.
  std::size_t find(std::uint64_t packed) const;
  void rehash(std::size_t capacity);

  VertexId num_vertices_;
  std::size_t size_ = 0;
  int shift_ = 0;  // 64 - log2(capacity)
  std::vector<std::uint64_t> slots_;
};

}  // namespace divlib
