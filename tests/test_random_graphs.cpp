#include "graph/random_graphs.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cli/graph_spec.hpp"
#include "graph/generators.hpp"

namespace divlib {
namespace {

TEST(RandomGraphs, GnpExtremes) {
  Rng rng(1);
  EXPECT_EQ(make_gnp(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(make_gnp(10, 1.0, rng).num_edges(), 45u);
}

TEST(RandomGraphs, GnpRejectsInvalidArguments) {
  Rng rng(2);
  EXPECT_THROW(make_gnp(0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(make_gnp(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(make_gnp(10, 1.1, rng), std::invalid_argument);
}

TEST(RandomGraphs, GnpEdgeCountConcentrates) {
  Rng rng(3);
  const VertexId n = 200;
  const double p = 0.1;
  const double expected = p * n * (n - 1) / 2.0;
  double total = 0.0;
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    total += static_cast<double>(make_gnp(n, p, rng).num_edges());
  }
  const double mean = total / kTrials;
  EXPECT_NEAR(mean, expected, 5.0 * std::sqrt(expected / kTrials));
}

TEST(RandomGraphs, GnpIsDeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  const Graph ga = make_gnp(50, 0.2, a);
  const Graph gb = make_gnp(50, 0.2, b);
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (std::size_t i = 0; i < ga.num_edges(); ++i) {
    EXPECT_EQ(ga.edges()[i], gb.edges()[i]);
  }
}

TEST(RandomGraphs, ConnectedGnpIsConnected) {
  Rng rng(11);
  const Graph g = make_connected_gnp(100, 0.08, rng);
  EXPECT_TRUE(g.is_connected());
}

TEST(RandomGraphs, RandomRegularHasExactDegrees) {
  Rng rng(13);
  const Graph g = make_random_regular(100, 6, rng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 6u);
  EXPECT_EQ(g.num_edges(), 300u);
}

TEST(RandomGraphs, RandomRegularRejectsOddProduct) {
  Rng rng(17);
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);
  EXPECT_THROW(make_random_regular(10, 10, rng), std::invalid_argument);
  EXPECT_THROW(make_random_regular(1, 1, rng), std::invalid_argument);
}

TEST(RandomGraphs, RandomRegularDegreeOneIsPerfectMatching) {
  Rng rng(19);
  const Graph g = make_random_regular(10, 1, rng);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(g.is_regular());
}

TEST(RandomGraphs, ConnectedRandomRegularIsConnected) {
  Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = make_connected_random_regular(64, 4, rng);
    EXPECT_TRUE(g.is_connected());
    EXPECT_TRUE(g.is_regular());
  }
}

TEST(RandomGraphs, WattsStrogatzZeroBetaIsLattice) {
  Rng rng(29);
  const Graph g = make_watts_strogatz(20, 2, 0.0, rng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(RandomGraphs, WattsStrogatzPreservesSimplicity) {
  Rng rng(31);
  const Graph g = make_watts_strogatz(100, 3, 0.3, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  // Rewiring keeps at most the lattice edge count.
  EXPECT_LE(g.num_edges(), 300u);
  EXPECT_GE(g.num_edges(), 250u);  // few edges dropped
}

TEST(RandomGraphs, WattsStrogatzValidatesArguments) {
  Rng rng(37);
  EXPECT_THROW(make_watts_strogatz(5, 3, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(make_watts_strogatz(10, 2, 1.5, rng), std::invalid_argument);
}

TEST(RandomGraphs, BarabasiAlbertDegreesAndConnectivity) {
  Rng rng(41);
  const Graph g = make_barabasi_albert(200, 3, rng);
  EXPECT_EQ(g.num_vertices(), 200u);
  // Seed clique (6 edges) + 196 newcomers * 3 edges.
  EXPECT_EQ(g.num_edges(), 6u + 196u * 3u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_GE(g.min_degree(), 3u);
}

TEST(RandomGraphs, BarabasiAlbertHubsEmerge) {
  Rng rng(43);
  const Graph g = make_barabasi_albert(500, 2, rng);
  // Preferential attachment should produce a hub well above the mean degree.
  EXPECT_GE(g.max_degree(), 4 * static_cast<std::uint32_t>(g.average_degree()));
}

TEST(RandomGraphs, BarabasiAlbertValidatesArguments) {
  Rng rng(47);
  EXPECT_THROW(make_barabasi_albert(3, 0, rng), std::invalid_argument);
  EXPECT_THROW(make_barabasi_albert(2, 2, rng), std::invalid_argument);
}

// K_n is the only simple (n-1)-regular graph, so the double-edge-swap repair
// can never improve a defective pairing; these specs used to run until the
// attempt budget ran out (minutes for n >= 16) or fail with "no connected
// sample".  They now return K_n at once, as regular:4:3 always did.
TEST(RandomGraphs, RegularWithDegreeNMinus1IsComplete) {
  for (const VertexId n : {2u, 4u, 8u, 10u, 12u, 16u, 32u, 64u}) {
    const std::string size = std::to_string(n);
    const auto start = std::chrono::steady_clock::now();
    Rng rng(n);
    const Graph regular =
        make_graph_from_spec("regular:" + size + ":" + std::to_string(n - 1), rng);
    const Graph plain = make_random_regular(n, n - 1, rng);
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count(),
              1.0)
        << n;
    const Graph complete = make_complete(n);
    for (const Graph* g : {&regular, &plain}) {
      ASSERT_EQ(g->num_edges(), complete.num_edges()) << n;
      for (std::size_t i = 0; i < complete.num_edges(); ++i) {
        EXPECT_EQ(g->edges()[i], complete.edges()[i]) << n;
      }
    }
  }
}

TEST(RandomGraphs, ConnectedRegularRejectsWhatNoRegularGraphSatisfies) {
  Rng rng(53);
  EXPECT_THROW(make_connected_random_regular(5, 3, rng), std::invalid_argument);
  EXPECT_THROW(make_connected_random_regular(6, 6, rng), std::invalid_argument);
  EXPECT_THROW(make_connected_random_regular(1, 1, rng), std::invalid_argument);
}

// A 1-regular graph on 4 vertices is two disjoint edges: every pairing is
// simple and every sample is disconnected, and the error says so.
TEST(RandomGraphs, ExhaustedConnectedRegularNamesTheFailingStep) {
  Rng rng(59);
  try {
    (void)make_connected_random_regular(4, 1, rng, 3);
    ADD_FAILURE() << "a disconnected-only family produced a sample";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "make_connected_random_regular: no connected sample in 3 "
              "attempts: the pairing repair stalled in 0, and 3 were simple "
              "but disconnected");
  }
}

}  // namespace
}  // namespace divlib
