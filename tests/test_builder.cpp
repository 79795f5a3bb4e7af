#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rng/rng.hpp"

namespace divlib {
namespace {

TEST(GraphBuilder, AddsEdgesOnce) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.add_edge(0, 1));
  EXPECT_FALSE(builder.add_edge(0, 1));
  EXPECT_FALSE(builder.add_edge(1, 0));
  EXPECT_EQ(builder.num_edges(), 1u);
}

TEST(GraphBuilder, RejectsSelfLoopsAndRangeErrors) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 3), std::invalid_argument);
}

TEST(GraphBuilder, HasEdgeIsSymmetric) {
  GraphBuilder builder(4);
  builder.add_edge(2, 3);
  EXPECT_TRUE(builder.has_edge(2, 3));
  EXPECT_TRUE(builder.has_edge(3, 2));
  EXPECT_FALSE(builder.has_edge(0, 1));
  EXPECT_FALSE(builder.has_edge(2, 2));
  EXPECT_FALSE(builder.has_edge(2, 9));
}

TEST(GraphBuilder, BuildProducesEquivalentGraph) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  const Graph first = builder.build();
  builder.add_edge(1, 2);
  const Graph second = builder.build();
  EXPECT_EQ(first.num_edges(), 1u);
  EXPECT_EQ(second.num_edges(), 2u);
}

TEST(GraphBuilder, EmptyBuildIsValid) {
  GraphBuilder builder(5);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.has_isolated_vertices());
}

TEST(GraphBuilder, RemoveThenReAdd) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  EXPECT_TRUE(builder.remove_edge(1, 0));
  EXPECT_FALSE(builder.remove_edge(0, 1));
  EXPECT_FALSE(builder.has_edge(0, 1));
  EXPECT_EQ(builder.num_edges(), 1u);
  EXPECT_TRUE(builder.add_edge(0, 1));
  EXPECT_FALSE(builder.add_edge(1, 0));
  EXPECT_TRUE(builder.has_edge(0, 1));
  EXPECT_TRUE(builder.has_edge(2, 3));
  EXPECT_EQ(builder.num_edges(), 2u);
  EXPECT_EQ(builder.build().num_edges(), 2u);
  // Out-of-range and self-loop removals are plain misses, not errors.
  EXPECT_FALSE(builder.remove_edge(0, 9));
  EXPECT_FALSE(builder.remove_edge(2, 2));
}

// Three edges whose packed keys share a home slot in the builder's smallest
// table (16 slots, Fibonacci hashing) form one probe run; removing the one in
// the middle must shift the last back so that it stays reachable.  The keys
// are found by replaying the hash here; should the hash ever change, the
// test still checks the same contract, on whatever runs the keys then form.
TEST(GraphBuilder, RemoveFromTheMiddleOfAProbeRun) {
  const VertexId n = 64;
  std::map<std::uint64_t, std::vector<std::pair<VertexId, VertexId>>> by_home;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
      by_home[(key * 0x9e3779b97f4a7c15ULL) >> 60].emplace_back(u, v);
    }
  }
  const auto& run = by_home.begin()->second;
  ASSERT_GE(run.size(), 3u);
  GraphBuilder builder(n);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(builder.add_edge(run[i].first, run[i].second));
  }
  EXPECT_TRUE(builder.remove_edge(run[1].first, run[1].second));
  EXPECT_TRUE(builder.has_edge(run[0].first, run[0].second));
  EXPECT_FALSE(builder.has_edge(run[1].first, run[1].second));
  EXPECT_TRUE(builder.has_edge(run[2].first, run[2].second));
  EXPECT_TRUE(builder.remove_edge(run[0].first, run[0].second));
  EXPECT_TRUE(builder.has_edge(run[2].first, run[2].second));
  EXPECT_FALSE(builder.add_edge(run[2].first, run[2].second));
  EXPECT_EQ(builder.num_edges(), 1u);
}

TEST(GraphBuilder, GrowsPastItsPresize) {
  const VertexId n = 200;
  GraphBuilder builder(n, 4);
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) {
    edges.push_back({v, static_cast<VertexId>(v + 1)});
    // 6v = -3 (mod 200) has no solution, so this is never a self-loop.
    edges.push_back({v, static_cast<VertexId>((v * 7 + 3) % n)});
  }
  std::set<std::pair<VertexId, VertexId>> expected;
  for (const Edge& e : edges) {
    const bool fresh =
        expected.emplace(std::min(e.u, e.v), std::max(e.u, e.v)).second;
    EXPECT_EQ(builder.add_edge(e.u, e.v), fresh);
  }
  EXPECT_EQ(builder.num_edges(), expected.size());
  for (const auto& [u, v] : expected) {
    EXPECT_TRUE(builder.has_edge(v, u));
  }
  const Graph g = builder.build();
  ASSERT_EQ(g.num_edges(), expected.size());
  std::size_t i = 0;
  for (const auto& [u, v] : expected) {
    EXPECT_EQ(g.edges()[i++], (Edge{u, v}));
  }
}

// Random adds and removes on a small vertex set, against std::set: with
// 66 possible edges and the table growing from 16 slots, probe runs wrap
// around the end of the table and removals land at every run position.
TEST(GraphBuilder, MatchesASetUnderRandomAddsAndRemoves) {
  const VertexId n = 12;
  GraphBuilder builder(n);
  std::set<std::pair<VertexId, VertexId>> reference;
  Rng rng(5);
  for (int op = 0; op < 20000; ++op) {
    const auto u = static_cast<VertexId>(rng.uniform_below(n));
    const auto v = static_cast<VertexId>(rng.uniform_below(n));
    if (u == v) {
      continue;
    }
    const std::pair<VertexId, VertexId> key{std::min(u, v), std::max(u, v)};
    if (rng.next() % 3 == 0) {
      ASSERT_EQ(builder.remove_edge(u, v), reference.erase(key) == 1);
    } else {
      ASSERT_EQ(builder.add_edge(u, v), reference.insert(key).second);
    }
    ASSERT_EQ(builder.num_edges(), reference.size());
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(builder.has_edge(u, v),
                u != v && reference.contains({std::min(u, v), std::max(u, v)}));
    }
  }
}

}  // namespace
}  // namespace divlib
