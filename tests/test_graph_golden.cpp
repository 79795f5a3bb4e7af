// Pins the bytes every graph generator produces, across versions.
//
// A campaign's `campaign.meta` and the queue's stored config record only the
// graph spec and the seed, so `--resume` and a requeued campaign rebuild the
// graph from those two on whatever binary runs them.  The edge-scheme
// engines index edges() directly.  A generator change that reorders the CSR,
// the edge list or the rng draws would therefore silently change what a
// resumed campaign simulates.  Each case hashes (FNV-1a, 64-bit) the CSR
// offsets, the adjacency rows, edges() in order, and one rng.next() taken
// after the build (the stream position the build leaves behind).
//
// The expected hashes were minted with the generators as they stood before
// GraphBuilder's open-addressing table and the row-sorting CSR constructor
// replaced the node-based hash set and the global edge sort; they must never
// be re-minted to make a change pass.  Regular graphs with d = n - 1 are left
// out on purpose: they return K_n (see RandomGraphs.RegularWithDegreeNMinus1*).
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>

#include "cli/graph_spec.hpp"

namespace divlib {
namespace {

class Fnv1a {
 public:
  void add32(std::uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      add_byte(static_cast<std::uint8_t>(value >> (8 * byte)));
    }
  }
  void add64(std::uint64_t value) {
    add32(static_cast<std::uint32_t>(value));
    add32(static_cast<std::uint32_t>(value >> 32));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void add_byte(std::uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t graph_hash(const std::string& spec, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = make_graph_from_spec(spec, rng);
  Fnv1a h;
  std::uint32_t offset = 0;
  h.add32(offset);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    offset += g.degree(v);
    h.add32(offset);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId w : g.neighbors(v)) {
      h.add32(w);
    }
  }
  for (const Edge& e : g.edges()) {
    h.add32(e.u);
    h.add32(e.v);
  }
  h.add64(rng.next());
  return h.value();
}

struct GoldenCase {
  const char* spec;
  std::uint64_t seed;
  std::uint64_t hash;
};

constexpr GoldenCase kGolden[] = {
    {"regular:65536:8", 1, 0x73328c6f2d9a7cd6ULL},
    {"regular:65536:8", 7, 0x35dfd6d8d6f1ccebULL},
    {"regular:1024:16", 1, 0x20c9abfdadad4e49ULL},
    {"regular:1024:16", 42, 0x177a2ed38f94c01cULL},
    {"regular:100:3", 3, 0xa2951aa4e6e92572ULL},
    {"regular:100:3", 11, 0xc9e16592d8de57daULL},
    {"regular:4096:32", 5, 0x5545679e29f1d0a7ULL},
    {"regular:4096:32", 9, 0xc829d01945fbe60dULL},
    {"gnp:500:0.02", 2, 0x2f20fc8e119c02bfULL},
    {"gnp:500:0.02", 13, 0x9c1ed4e8234e69dcULL},
    {"ws:1000:4:0.2", 4, 0xba5ae8a30a345a51ULL},
    {"ws:1000:4:0.2", 17, 0x043b2673b6a47699ULL},
    {"ba:3000:4", 6, 0xa8b883ec9907cbdcULL},
    {"ba:3000:4", 19, 0xe141fbf597e1f192ULL},
    {"grid:20:30", 1, 0x46eedba5db461ccdULL},
    {"grid:20:30", 2, 0xb855926eab41290eULL},
    {"torus:32:24", 1, 0x1966415692031635ULL},
    {"torus:32:24", 2, 0x7300bc60390f2f46ULL},
    {"margulis:40", 1, 0xab202b148b680146ULL},
    {"margulis:40", 2, 0x00b2509655d0691dULL},
    {"complete:32", 1, 0xe02b997583226ca9ULL},
    {"complete:32", 2, 0x0bc3c123b467e532ULL},
    {"hypercube:10", 1, 0x2f87f230498dcde1ULL},
    {"hypercube:10", 2, 0xfac2aa76cfc7ac9aULL},
    {"barbell:24", 1, 0x593b04a97c1aed95ULL},
    {"barbell:24", 2, 0xd9f0fa24768ebba6ULL},
    {"lollipop:16:40", 1, 0x0e439e4dcf7d1afaULL},
    {"lollipop:16:40", 2, 0xaec9251a1d3b3b39ULL},
    {"tree:1000", 1, 0x5b601ea721ef82c0ULL},
    {"tree:1000", 2, 0xb1c0db5d04bdfc83ULL},
    {"path:300", 1, 0xe8db88a537cbe3a4ULL},
    {"path:300", 2, 0x6c9a72b9e6f0693fULL},
    {"cycle:300", 1, 0x05647b6eb432e387ULL},
    {"cycle:300", 2, 0xd2558932abd03184ULL},
    {"star:300", 1, 0x66484bed02e956ccULL},
    {"star:300", 2, 0x8a1d97e5462b6ed7ULL},
};

TEST(GraphGolden, GeneratorsAreByteStable) {
  for (const GoldenCase& golden : kGolden) {
    const std::uint64_t actual = graph_hash(golden.spec, golden.seed);
    std::ostringstream hex;
    hex << "0x" << std::hex << std::setw(16) << std::setfill('0') << actual;
    EXPECT_EQ(actual, golden.hash)
        << golden.spec << " seed " << golden.seed << " hashed to "
        << hex.str();
  }
}

}  // namespace
}  // namespace divlib
