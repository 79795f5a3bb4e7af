// Minimal JSON reader for divbench: BENCHMARK.json, result files handed to
// `divbench compare`, and the JSON that `divsim journal --json`, `divsim
// queue status --json` and `--metrics-out` emit.  Writing goes through
// divlib's JsonObject (obs/jsonl.hpp).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace divbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  // in document order

  // Member lookup; nullptr when absent or when this is not an object.
  const Json* find(std::string_view key) const;
  // Member lookup that throws std::runtime_error naming the missing key.
  const Json& at(std::string_view key) const;
};

// Parses one JSON document (trailing whitespace allowed).  Throws
// std::runtime_error with the byte offset on malformed input.
Json parse_json(std::string_view text);

}  // namespace divbench
