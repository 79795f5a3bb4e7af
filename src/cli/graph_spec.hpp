// Textual graph specifications for the divsim CLI and experiment configs.
//
// Syntax: "<family>" or "<family>:<arg1>:<arg2>...", e.g.
//   complete:256          K_256
//   path:100              P_100
//   cycle:64              C_64
//   star:50
//   regular:256:16        random 16-regular (needs an Rng)
//   gnp:256:0.1           Erdos-Renyi (needs an Rng)
//   hypercube:8           Q_8
//   torus:16:16           wrapped grid
//   grid:8:12             plain grid
//   barbell:32            two K_32 + bridge
//   lollipop:24:24
//   ws:500:5:0.2          Watts-Strogatz (n, k, beta)
//   ba:500:3              Barabasi-Albert (n, attach)
#pragma once

#include <string>

#include "core/cancel.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace divlib {

// Parses and builds; throws std::invalid_argument with a helpful message on
// unknown families, wrong arity, or invalid parameters.  Random families
// consume randomness from `rng`.  The random regular family polls `cancel`
// (when given) during the build and throws OperationCancelled once it
// fires; polling draws nothing from `rng`.
Graph make_graph_from_spec(const std::string& spec, Rng& rng,
                           const CancelToken* cancel = nullptr);

// One-line human-readable list of supported specs (for --help output).
std::string graph_spec_help();

}  // namespace divlib
