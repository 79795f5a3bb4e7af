#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace divlib {
namespace {

// Edges, rows or searched vertices between two polls of a cancel token.
constexpr std::size_t kCancelPollStride = 1 << 16;
constexpr const char* kBuildCancelled = "graph build cancelled";

}  // namespace

// The CSR is built straight from the input, in any order: count degrees,
// scatter both directions of every edge into its rows, then sort each row.
// A duplicate edge shows up as two equal neighbours in one row, and the
// lexicographic edge list is read off the sorted rows, so no comparison sort
// ever runs over all m edges.  The scatter (random writes into every row)
// and the row sorts are the long passes of a million-vertex build, so
// `cancel` is polled inside both.
Graph::Graph(VertexId num_vertices, std::vector<Edge> edges,
             const CancelToken* cancel)
    : num_vertices_(num_vertices) {
  offsets_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (const Edge& e : edges) {
    if (e.u >= num_vertices_ || e.v >= num_vertices_) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph: self-loop");
    }
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  adjacency_.resize(2 * edges.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i % kCancelPollStride == 0) {
      throw_if_cancelled(cancel, kBuildCancelled);
    }
    const Edge& e = edges[i];
    adjacency_[cursor[e.u]++] = e.v;
    adjacency_[cursor[e.v]++] = e.u;
  }
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (v % kCancelPollStride == 0) {
      throw_if_cancelled(cancel, kBuildCancelled);
    }
    const auto row = adjacency_.begin() + offsets_[v];
    const auto row_end = adjacency_.begin() + offsets_[v + 1];
    std::sort(row, row_end);
    if (std::adjacent_find(row, row_end) != row_end) {
      throw std::invalid_argument("Graph: duplicate edge");
    }
  }

  // Reuse the input's storage for the edge list: same size, now sorted.
  edges.clear();
  for (VertexId u = 0; u < num_vertices_; ++u) {
    for (const VertexId v : neighbors(u)) {
      if (v > u) {
        edges.push_back({u, v});
      }
    }
  }
  edges_ = std::move(edges);
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) {
    return false;
  }
  // Probe the smaller adjacency row.
  if (degree(u) > degree(v)) {
    std::swap(u, v);
  }
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

double Graph::stationary(VertexId v) const {
  return static_cast<double>(degree(v)) / static_cast<double>(total_degree());
}

std::vector<double> Graph::stationary_distribution() const {
  std::vector<double> pi(num_vertices_);
  const auto two_m = static_cast<double>(total_degree());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    pi[v] = static_cast<double>(degree(v)) / two_m;
  }
  return pi;
}

double Graph::min_stationary() const {
  return static_cast<double>(min_degree()) / static_cast<double>(total_degree());
}

double Graph::max_stationary() const {
  return static_cast<double>(max_degree()) / static_cast<double>(total_degree());
}

std::uint32_t Graph::min_degree() const {
  std::uint32_t best = num_vertices_ == 0 ? 0 : degree(0);
  for (VertexId v = 1; v < num_vertices_; ++v) {
    best = std::min(best, degree(v));
  }
  return best;
}

std::uint32_t Graph::max_degree() const {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

double Graph::average_degree() const {
  if (num_vertices_ == 0) {
    return 0.0;
  }
  return static_cast<double>(total_degree()) / static_cast<double>(num_vertices_);
}

bool Graph::is_regular() const {
  return num_vertices_ == 0 || min_degree() == max_degree();
}

bool Graph::is_connected(const CancelToken* cancel) const {
  if (num_vertices_ == 0) {
    return true;
  }
  std::vector<bool> seen(num_vertices_, false);
  std::vector<VertexId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  for (std::size_t popped = 0; !stack.empty(); ++popped) {
    if (popped % kCancelPollStride == 0) {
      throw_if_cancelled(cancel, kBuildCancelled);
    }
    const VertexId v = stack.back();
    stack.pop_back();
    for (const VertexId w : neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        ++visited;
        stack.push_back(w);
      }
    }
  }
  return visited == num_vertices_;
}

bool Graph::has_isolated_vertices() const {
  return num_vertices_ > 0 && min_degree() == 0;
}

std::string Graph::summary() const {
  return "n=" + std::to_string(num_vertices_) + " m=" + std::to_string(num_edges()) +
         " deg=[" + std::to_string(min_degree()) + "," + std::to_string(max_degree()) + "]";
}

}  // namespace divlib
