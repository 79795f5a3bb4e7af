#include "graph/generators.hpp"

#include <stdexcept>

#include "graph/builder.hpp"

namespace divlib {

Graph make_complete(VertexId n) {
  if (n < 1) {
    throw std::invalid_argument("make_complete: n >= 1 required");
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

Graph make_path(VertexId n) {
  if (n < 1) {
    throw std::invalid_argument("make_path: n >= 1 required");
  }
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (VertexId v = 0; v + 1 < n; ++v) {
    edges.push_back({v, v + 1});
  }
  return Graph(n, std::move(edges));
}

Graph make_cycle(VertexId n) {
  if (n < 3) {
    throw std::invalid_argument("make_cycle: n >= 3 required");
  }
  std::vector<Edge> edges;
  edges.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<VertexId>((v + 1) % n)});
  }
  return Graph(n, std::move(edges));
}

Graph make_star(VertexId n) {
  if (n < 2) {
    throw std::invalid_argument("make_star: n >= 2 required");
  }
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (VertexId v = 1; v < n; ++v) {
    edges.push_back({0, v});
  }
  return Graph(n, std::move(edges));
}

Graph make_complete_bipartite(VertexId a, VertexId b) {
  if (a < 1 || b < 1) {
    throw std::invalid_argument("make_complete_bipartite: parts must be nonempty");
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) {
      edges.push_back({u, static_cast<VertexId>(a + v)});
    }
  }
  return Graph(a + b, std::move(edges));
}

Graph make_barbell(VertexId half) {
  return make_double_clique(half, 1);
}

Graph make_double_clique(VertexId half, VertexId bridges) {
  if (half < 2) {
    throw std::invalid_argument("make_double_clique: half >= 2 required");
  }
  if (bridges < 1 || bridges > half) {
    throw std::invalid_argument("make_double_clique: 1 <= bridges <= half required");
  }
  const VertexId n = 2 * half;
  std::vector<Edge> edges;
  for (VertexId u = 0; u < half; ++u) {
    for (VertexId v = u + 1; v < half; ++v) {
      edges.push_back({u, v});
      edges.push_back({static_cast<VertexId>(half + u), static_cast<VertexId>(half + v)});
    }
  }
  for (VertexId b = 0; b < bridges; ++b) {
    edges.push_back({b, static_cast<VertexId>(half + b)});
  }
  return Graph(n, std::move(edges));
}

Graph make_lollipop(VertexId clique, VertexId tail) {
  if (clique < 2) {
    throw std::invalid_argument("make_lollipop: clique >= 2 required");
  }
  const VertexId n = clique + tail;
  std::vector<Edge> edges;
  for (VertexId u = 0; u < clique; ++u) {
    for (VertexId v = u + 1; v < clique; ++v) {
      edges.push_back({u, v});
    }
  }
  for (VertexId t = 0; t < tail; ++t) {
    const VertexId prev = t == 0 ? clique - 1 : static_cast<VertexId>(clique + t - 1);
    edges.push_back({prev, static_cast<VertexId>(clique + t)});
  }
  return Graph(n, std::move(edges));
}

Graph make_hypercube(unsigned dim) {
  if (dim < 1 || dim > 24) {
    throw std::invalid_argument("make_hypercube: 1 <= dim <= 24 required");
  }
  const VertexId n = static_cast<VertexId>(1u << dim);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dim / 2);
  for (VertexId v = 0; v < n; ++v) {
    for (unsigned bit = 0; bit < dim; ++bit) {
      const VertexId w = v ^ (1u << bit);
      if (v < w) {
        edges.push_back({v, w});
      }
    }
  }
  return Graph(n, std::move(edges));
}

Graph make_grid(VertexId rows, VertexId cols, bool torus) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("make_grid: dimensions >= 1 required");
  }
  if (torus && (rows < 3 || cols < 3)) {
    throw std::invalid_argument("make_grid: torus requires rows,cols >= 3");
  }
  const auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  GraphBuilder builder(rows * cols, 2 * static_cast<std::size_t>(rows) * cols);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        builder.add_edge(id(r, c), id(r, c + 1));
      } else if (torus) {
        builder.add_edge(id(r, c), id(r, 0));
      }
      if (r + 1 < rows) {
        builder.add_edge(id(r, c), id(r + 1, c));
      } else if (torus) {
        builder.add_edge(id(r, c), id(0, c));
      }
    }
  }
  return builder.build();
}

Graph make_margulis(VertexId m) {
  if (m < 3) {
    throw std::invalid_argument("make_margulis: m >= 3 required");
  }
  const VertexId n = m * m;
  const auto id = [m](VertexId x, VertexId y) { return x * m + y; };
  const auto mod = [m](std::int64_t value) {
    const std::int64_t r = value % static_cast<std::int64_t>(m);
    return static_cast<VertexId>(r < 0 ? r + m : r);
  };
  // Each of the 8 offsets pairs up with its inverse, so at most 4n edges.
  GraphBuilder builder(n, 4 * static_cast<std::size_t>(n));
  for (VertexId x = 0; x < m; ++x) {
    for (VertexId y = 0; y < m; ++y) {
      const VertexId v = id(x, y);
      const std::int64_t sx = x;
      const std::int64_t sy = y;
      const VertexId targets[] = {
          id(mod(sx + 2 * sy), y),       id(mod(sx - 2 * sy), y),
          id(mod(sx + 2 * sy + 1), y),   id(mod(sx - 2 * sy - 1), y),
          id(x, mod(sy + 2 * sx)),       id(x, mod(sy - 2 * sx)),
          id(x, mod(sy + 2 * sx + 1)),   id(x, mod(sy - 2 * sx - 1)),
      };
      for (const VertexId w : targets) {
        if (w != v) {
          builder.add_edge(v, w);  // parallel edges collapse in the builder
        }
      }
    }
  }
  return builder.build();
}

Graph make_binary_tree(VertexId n) {
  if (n < 1) {
    throw std::invalid_argument("make_binary_tree: n >= 1 required");
  }
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (VertexId v = 1; v < n; ++v) {
    edges.push_back({static_cast<VertexId>((v - 1) / 2), v});
  }
  return Graph(n, std::move(edges));
}

}  // namespace divlib
