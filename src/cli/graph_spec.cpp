#include "cli/graph_spec.hpp"

#include <stdexcept>
#include <vector>

#include "cli/parse_number.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"

namespace divlib {
namespace {

std::vector<std::string> split_fields(const std::string& spec) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(spec.substr(start));
      return fields;
    }
    fields.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
}

[[noreturn]] void fail(const std::string& spec, const std::string& reason) {
  throw std::invalid_argument("graph spec '" + spec + "': " + reason);
}

void require_arity(const std::string& spec, const std::vector<std::string>& fields,
                   std::size_t args) {
  if (fields.size() != args + 1) {
    fail(spec, "expects " + std::to_string(args) + " argument(s), got " +
                   std::to_string(fields.size() - 1));
  }
}

// Field `index` (1-based after the family) read whole as a T; `name` is the
// field's name in graph_spec_help().
template <typename T>
T integer_field(const std::string& spec, const std::vector<std::string>& fields,
                std::size_t index, const char* name) {
  const auto value = parse_integer<T>(fields[index]);
  if (!value) {
    fail(spec, std::string(name) + " " + integer_expectation<T>() + ", got '" +
                   fields[index] + "'");
  }
  return *value;
}

double number_field(const std::string& spec, const std::vector<std::string>& fields,
                    std::size_t index, const char* name) {
  const auto value = parse_finite(fields[index]);
  if (!value) {
    fail(spec, std::string(name) + " expects a finite number, got '" +
                   fields[index] + "'");
  }
  return *value;
}

}  // namespace

Graph make_graph_from_spec(const std::string& spec, Rng& rng,
                           const CancelToken* cancel) {
  const auto fields = split_fields(spec);
  const std::string& family = fields[0];
  const auto vertices = [&](std::size_t index, const char* name) {
    return integer_field<VertexId>(spec, fields, index, name);
  };
  if (family == "complete") {
    require_arity(spec, fields, 1);
    return make_complete(vertices(1, "N"));
  }
  if (family == "path") {
    require_arity(spec, fields, 1);
    return make_path(vertices(1, "N"));
  }
  if (family == "cycle") {
    require_arity(spec, fields, 1);
    return make_cycle(vertices(1, "N"));
  }
  if (family == "star") {
    require_arity(spec, fields, 1);
    return make_star(vertices(1, "N"));
  }
  if (family == "hypercube") {
    require_arity(spec, fields, 1);
    return make_hypercube(integer_field<unsigned>(spec, fields, 1, "D"));
  }
  if (family == "barbell") {
    require_arity(spec, fields, 1);
    return make_barbell(vertices(1, "H"));
  }
  if (family == "lollipop") {
    require_arity(spec, fields, 2);
    return make_lollipop(vertices(1, "CLIQUE"), vertices(2, "TAIL"));
  }
  if (family == "grid" || family == "torus") {
    require_arity(spec, fields, 2);
    return make_grid(vertices(1, "R"), vertices(2, "C"), family == "torus");
  }
  if (family == "tree") {
    require_arity(spec, fields, 1);
    return make_binary_tree(vertices(1, "N"));
  }
  if (family == "margulis") {
    require_arity(spec, fields, 1);
    return make_margulis(vertices(1, "M"));
  }
  if (family == "regular") {
    require_arity(spec, fields, 2);
    return make_connected_random_regular(
        vertices(1, "N"), integer_field<std::uint32_t>(spec, fields, 2, "D"),
        rng, kRegularMaxAttempts, cancel);
  }
  if (family == "gnp") {
    require_arity(spec, fields, 2);
    return make_connected_gnp(vertices(1, "N"),
                              number_field(spec, fields, 2, "P"), rng);
  }
  if (family == "ws") {
    require_arity(spec, fields, 3);
    return make_watts_strogatz(
        vertices(1, "N"), integer_field<std::uint32_t>(spec, fields, 2, "K"),
        number_field(spec, fields, 3, "BETA"), rng);
  }
  if (family == "ba") {
    require_arity(spec, fields, 2);
    return make_barabasi_albert(
        vertices(1, "N"),
        integer_field<std::uint32_t>(spec, fields, 2, "ATTACH"), rng);
  }
  fail(spec, "unknown family (see graph_spec_help())");
}

std::string graph_spec_help() {
  return "complete:N | path:N | cycle:N | star:N | hypercube:D | barbell:H | "
         "lollipop:CLIQUE:TAIL | grid:R:C | torus:R:C | tree:N | margulis:M | "
         "regular:N:D | gnp:N:P | ws:N:K:BETA | ba:N:ATTACH";
}

}  // namespace divlib
