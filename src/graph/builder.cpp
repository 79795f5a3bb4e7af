#include "graph/builder.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace divlib {

namespace {

constexpr std::uint64_t kEmpty = 0;
constexpr std::size_t kMinCapacity = 16;

// Smallest power-of-two capacity that keeps `edges` at most half full.
std::size_t capacity_for(std::size_t edges) {
  return std::bit_ceil(std::max(kMinCapacity, 2 * edges));
}

}  // namespace

GraphBuilder::GraphBuilder(VertexId num_vertices, std::size_t expected_edges)
    : num_vertices_(num_vertices) {
  rehash(capacity_for(expected_edges));
}

std::uint64_t GraphBuilder::key(VertexId u, VertexId v) {
  if (u > v) {
    std::swap(u, v);
  }
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

std::size_t GraphBuilder::home(std::uint64_t packed) const {
  // Fibonacci hashing: the top bits of the product mix both endpoints.
  return static_cast<std::size_t>((packed * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t GraphBuilder::find(std::uint64_t packed) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = home(packed);
  while (slots_[slot] != kEmpty && slots_[slot] != packed) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void GraphBuilder::rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old(capacity, kEmpty);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  for (const std::uint64_t packed : old) {
    if (packed != kEmpty) {
      slots_[find(packed)] = packed;
    }
  }
}

bool GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::invalid_argument("GraphBuilder: endpoint out of range");
  }
  if (u == v) {
    throw std::invalid_argument("GraphBuilder: self-loop");
  }
  const std::uint64_t k = key(u, v);
  std::size_t slot = find(k);
  if (slots_[slot] == k) {
    return false;
  }
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(2 * slots_.size());
    slot = find(k);
  }
  slots_[slot] = k;
  ++size_;
  return true;
}

bool GraphBuilder::remove_edge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) {
    return false;
  }
  std::size_t hole = find(key(u, v));
  if (slots_[hole] == kEmpty) {
    return false;
  }
  const std::size_t mask = slots_.size() - 1;
  // Backward-shift deletion: walk the rest of the probe run and move back
  // every key whose home slot does not lie cyclically in (hole, slot], so
  // no lookup ever crosses an empty slot before reaching its key.
  for (std::size_t slot = (hole + 1) & mask; slots_[slot] != kEmpty;
       slot = (slot + 1) & mask) {
    const std::size_t from_home = (slot - home(slots_[slot])) & mask;
    if (from_home >= ((slot - hole) & mask)) {
      slots_[hole] = slots_[slot];
      hole = slot;
    }
  }
  slots_[hole] = kEmpty;
  --size_;
  return true;
}

bool GraphBuilder::has_edge(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) {
    return false;
  }
  const std::uint64_t k = key(u, v);
  return slots_[find(k)] == k;
}

Graph GraphBuilder::build(const CancelToken* cancel) const {
  std::vector<Edge> edges;
  edges.reserve(size_);
  for (const std::uint64_t packed : slots_) {
    if (packed != kEmpty) {
      edges.push_back({static_cast<VertexId>(packed >> 32),
                       static_cast<VertexId>(packed)});
    }
  }
  return Graph(num_vertices_, std::move(edges), cancel);
}

}  // namespace divlib
