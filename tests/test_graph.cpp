#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/cancel.hpp"

namespace divlib {
namespace {

Graph make_triangle() { return Graph(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(Graph, DefaultIsEmpty) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, BasicProperties) {
  const Graph g = make_triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.total_degree(), 6u);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.degree(v), 2u);
  }
  EXPECT_TRUE(g.is_regular());
  EXPECT_TRUE(g.is_connected());
  EXPECT_FALSE(g.has_isolated_vertices());
}

TEST(Graph, NormalizesEdgeOrientation) {
  const Graph g(3, {{2, 0}, {1, 0}, {2, 1}});
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, e.v);
  }
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, RejectsSelfLoops) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdges) {
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {0, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{7, 1}}), std::invalid_argument);
}

// The CSR build polls a cancel token: a fired one aborts it, an idle one
// changes nothing.
TEST(Graph, CancelTokenAbortsTheBuild) {
  CancelToken fired;
  fired.request();
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 2}, {0, 2}}, &fired), OperationCancelled);

  const CancelToken idle;
  const Graph polled(3, {{2, 0}, {1, 0}, {2, 1}}, &idle);
  EXPECT_TRUE(std::ranges::equal(polled.edges(), make_triangle().edges()));
}

TEST(Graph, NeighborsAreSortedAndComplete) {
  const Graph g(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto row = g.neighbors(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 1u);
  EXPECT_EQ(row[1], 2u);
  EXPECT_EQ(row[2], 3u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
}

TEST(Graph, HasEdgeNegativeCases) {
  const Graph g = make_triangle();
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
  const Graph path(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(path.has_edge(0, 2));
}

TEST(Graph, StationaryDistributionSumsToOne) {
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  const auto pi = g.stationary_distribution();
  double sum = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(pi[v], g.stationary(v));
    sum += pi[v];
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(Graph, StationaryIsDegreeProportional) {
  // Star on 4 vertices: center degree 3, leaves degree 1, 2m = 6.
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(g.stationary(0), 0.5);
  EXPECT_DOUBLE_EQ(g.stationary(1), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(g.min_stationary(), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(g.max_stationary(), 0.5);
}

TEST(Graph, DegreeExtremes) {
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
  EXPECT_FALSE(g.is_regular());
}

TEST(Graph, DetectsDisconnection) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, DetectsIsolatedVertices) {
  const Graph g(3, {{0, 1}});
  EXPECT_TRUE(g.has_isolated_vertices());
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = make_triangle();
  const std::string text = g.summary();
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("m=3"), std::string::npos);
}

}  // namespace
}  // namespace divlib
