#include "graph/random_graphs.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace divlib {

Graph make_gnp(VertexId n, double p, Rng& rng) {
  if (n < 1) {
    throw std::invalid_argument("make_gnp: n >= 1 required");
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("make_gnp: p in [0,1] required");
  }
  std::vector<Edge> edges;
  if (p >= 1.0) {
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        edges.push_back({u, v});
      }
    }
    return Graph(n, std::move(edges));
  }
  if (p > 0.0) {
    // Geometric skipping over the lexicographic pair stream
    // (Batagelj & Brandes 2005).
    const double log_q = std::log(1.0 - p);
    std::int64_t u = 1;
    std::int64_t v = -1;
    const auto nn = static_cast<std::int64_t>(n);
    while (u < nn) {
      const double r = 1.0 - rng.uniform01();  // r in (0,1]
      v += 1 + static_cast<std::int64_t>(std::floor(std::log(r) / log_q));
      while (v >= u && u < nn) {
        v -= u;
        ++u;
      }
      if (u < nn) {
        edges.push_back({static_cast<VertexId>(v), static_cast<VertexId>(u)});
      }
    }
  }
  return Graph(n, std::move(edges));
}

Graph make_connected_gnp(VertexId n, double p, Rng& rng, int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = make_gnp(n, p, rng);
    if (g.is_connected()) {
      return g;
    }
  }
  throw std::runtime_error("make_connected_gnp: no connected sample found");
}

namespace {

// Stubs (or repair swaps) between two polls of a build's cancel token.
constexpr std::size_t kCancelPollStubs = 1 << 15;
constexpr const char* kBuildCancelled = "random regular graph build cancelled";

// Configuration-model pairing with double-edge-swap repair.
//
// Plain rejection sampling is hopeless beyond small degree (the probability
// of a simple pairing decays like exp(-(d^2-1)/4)), so defective pairs
// (self-loops and duplicate edges) are repaired by swapping against a random
// good edge: the defective pair (u, v) plus a good edge (x, y) become
// (u, x) and (v, y), which preserves all degrees.  This is the standard
// practical sampler; the bias relative to uniform is negligible for d = o(n).
// Returns false if the repair stalls (retry with a fresh pairing).
bool try_pairing(VertexId n, std::uint32_t d, Rng& rng, GraphBuilder& builder,
                 const CancelToken* cancel) {
  std::vector<VertexId> stubs(static_cast<std::size_t>(n) * d);
  for (VertexId v = 0; v < n; ++v) {
    std::fill_n(stubs.begin() + static_cast<std::size_t>(v) * d, d, v);
  }
  // Rng::shuffle's Fisher-Yates, written out so the token is polled between
  // swaps: the same draws in the same order.
  for (std::size_t i = stubs.size(); i > 1; --i) {
    if (i % kCancelPollStubs == 0) {
      throw_if_cancelled(cancel, kBuildCancelled);
    }
    const std::size_t j = static_cast<std::size_t>(rng.uniform_below(i));
    std::swap(stubs[i - 1], stubs[j]);
  }

  std::vector<Edge> good;
  std::vector<Edge> defective;
  good.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (i % kCancelPollStubs == 0) {
      throw_if_cancelled(cancel, kBuildCancelled);
    }
    const VertexId u = stubs[i];
    const VertexId v = stubs[i + 1];
    if (u == v || !builder.add_edge(u, v)) {
      defective.push_back({u, v});
    } else {
      good.push_back(u < v ? Edge{u, v} : Edge{v, u});
    }
  }

  std::uint64_t budget = 1000 + 200ULL * defective.size() * (d + 1);
  while (!defective.empty()) {
    if (budget % kCancelPollStubs == 0) {
      throw_if_cancelled(cancel, kBuildCancelled);
    }
    if (budget-- == 0 || good.empty()) {
      return false;
    }
    const Edge bad = defective.back();
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform_below(good.size()));
    Edge partner = good[pick];
    if (rng.next() & 1u) {
      std::swap(partner.u, partner.v);
    }
    const VertexId a = bad.u;
    const VertexId b = bad.v;
    const VertexId x = partner.u;
    const VertexId y = partner.v;
    // Proposed replacement edges (a, x) and (b, y).
    if (a == x || b == y || builder.has_edge(a, x) || builder.has_edge(b, y) ||
        (std::min(a, x) == std::min(b, y) && std::max(a, x) == std::max(b, y))) {
      continue;
    }
    defective.pop_back();
    // Remove (x, y) from the good list and the builder's edge set.
    builder.remove_edge(partner.u, partner.v);
    good[pick] = good.back();
    good.pop_back();
    builder.add_edge(a, x);
    builder.add_edge(b, y);
    good.push_back(a < x ? Edge{a, x} : Edge{x, a});
    good.push_back(b < y ? Edge{b, y} : Edge{y, b});
  }
  return true;
}

void check_regular_arguments(const char* who, VertexId n, std::uint32_t d) {
  if (n < 2 || d < 1 || d >= n) {
    throw std::invalid_argument(std::string(who) + ": need n >= 2, 1 <= d < n");
  }
  if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument(std::string(who) + ": n*d must be even");
  }
}

}  // namespace

Graph make_random_regular(VertexId n, std::uint32_t d, Rng& rng, int max_attempts) {
  check_regular_arguments("make_random_regular", n, d);
  if (d == n - 1) {
    return make_complete(n);
  }
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GraphBuilder builder(n, static_cast<std::size_t>(n) * d / 2);
    if (try_pairing(n, d, rng, builder, nullptr)) {
      return builder.build();
    }
  }
  throw std::runtime_error("make_random_regular: the pairing repair stalled in all " +
                           std::to_string(max_attempts) + " attempts");
}

Graph make_connected_random_regular(VertexId n, std::uint32_t d, Rng& rng,
                                    int max_attempts,
                                    const CancelToken* cancel) {
  check_regular_arguments("make_connected_random_regular", n, d);
  if (d == n - 1) {
    return make_complete(n);
  }
  int stalled = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    throw_if_cancelled(cancel, kBuildCancelled);
    GraphBuilder builder(n, static_cast<std::size_t>(n) * d / 2);
    if (!try_pairing(n, d, rng, builder, cancel)) {
      ++stalled;
      continue;
    }
    Graph g = builder.build(cancel);
    if (g.is_connected(cancel)) {
      return g;
    }
  }
  throw std::runtime_error(
      "make_connected_random_regular: no connected sample in " +
      std::to_string(max_attempts) + " attempts: the pairing repair stalled in " +
      std::to_string(stalled) + ", and " + std::to_string(max_attempts - stalled) +
      " were simple but disconnected");
}

Graph make_watts_strogatz(VertexId n, std::uint32_t k, double beta, Rng& rng) {
  if (n < 3 || k < 1 || 2 * k >= n) {
    throw std::invalid_argument("make_watts_strogatz: need n >= 3, 1 <= 2k < n");
  }
  if (beta < 0.0 || beta > 1.0) {
    throw std::invalid_argument("make_watts_strogatz: beta in [0,1] required");
  }
  // Rewiring is done in two passes: decide which lattice edges to rewire,
  // insert the survivors, then draw replacement endpoints against the final
  // edge set so the graph stays simple.
  std::vector<Edge> lattice;
  lattice.reserve(static_cast<std::size_t>(n) * k);
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint32_t j = 1; j <= k; ++j) {
      lattice.push_back({v, static_cast<VertexId>((v + j) % n)});
    }
  }
  GraphBuilder fresh(n, lattice.size());
  std::vector<bool> keep(lattice.size(), true);
  // First pass: decide rewiring and insert surviving lattice edges.
  std::vector<std::size_t> to_rewire;
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    if (rng.bernoulli(beta)) {
      keep[i] = false;
      to_rewire.push_back(i);
    }
  }
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    if (keep[i]) {
      fresh.add_edge(lattice[i].u, lattice[i].v);
    }
  }
  for (const std::size_t i : to_rewire) {
    const VertexId v = lattice[i].u;
    for (int tries = 0; tries < 256; ++tries) {
      const auto target = static_cast<VertexId>(rng.uniform_below(n));
      if (target != v && !fresh.has_edge(v, target)) {
        fresh.add_edge(v, target);
        break;
      }
    }
    // If no target was found the edge is dropped (vanishingly rare unless the
    // graph is nearly complete).
  }
  return fresh.build();
}

Graph make_barabasi_albert(VertexId n, std::uint32_t attach, Rng& rng) {
  if (attach < 1 || n < attach + 1) {
    throw std::invalid_argument("make_barabasi_albert: need n >= attach+1 >= 2");
  }
  GraphBuilder builder(n, static_cast<std::size_t>(n) * attach);
  // Seed clique on attach+1 vertices.
  for (VertexId u = 0; u <= attach; ++u) {
    for (VertexId v = u + 1; v <= attach; ++v) {
      builder.add_edge(u, v);
    }
  }
  // repeated_targets holds one entry per half-edge endpoint: sampling a
  // uniform element is degree-proportional sampling.
  std::vector<VertexId> repeated_targets;
  repeated_targets.reserve(2 * static_cast<std::size_t>(n) * attach);
  for (VertexId u = 0; u <= attach; ++u) {
    for (VertexId v = u + 1; v <= attach; ++v) {
      repeated_targets.push_back(u);
      repeated_targets.push_back(v);
    }
  }
  for (VertexId v = attach + 1; v < n; ++v) {
    std::vector<VertexId> chosen;
    while (chosen.size() < attach) {
      const VertexId target = repeated_targets[static_cast<std::size_t>(
          rng.uniform_below(repeated_targets.size()))];
      if (target != v && !builder.has_edge(v, target)) {
        builder.add_edge(v, target);
        chosen.push_back(target);
      }
    }
    for (const VertexId target : chosen) {
      repeated_targets.push_back(v);
      repeated_targets.push_back(target);
    }
  }
  return builder.build();
}

}  // namespace divlib
