#include "cli/fault_spec.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "cli/parse_number.hpp"

namespace divlib {

namespace {

[[noreturn]] void bad(const std::string& clause, const std::string& why) {
  throw std::invalid_argument("fault spec clause '" + clause + "': " + why +
                              " (" + fault_spec_help() + ")");
}

// Parses a probability/fraction in [0, 1].
double parse_probability(const std::string& clause, const std::string& text) {
  const auto value = parse_finite(text);
  if (!value) {
    bad(clause, "'" + text + "' is not a finite number");
  }
  if (*value < 0.0 || *value > 1.0) {
    bad(clause, "value out of range [0, 1]");
  }
  return *value;
}

// Step bounds accept scientific notation ("1e6") but must be non-negative
// integers after rounding.
std::uint64_t parse_step(const std::string& clause, const std::string& text) {
  const auto value = parse_finite(text);
  if (!value || *value < 0.0) {
    bad(clause, "bad step bound");
  }
  return static_cast<std::uint64_t>(std::llround(*value));
}

}  // namespace

namespace {

// Splits on commas at bracket depth 0, so "crash=0.1@[0,1e6]" stays whole.
std::vector<std::string> split_clauses(const std::string& text) {
  std::vector<std::string> clauses;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '[') {
      ++depth;
    } else if (c == ']') {
      --depth;
    }
    if (c == ',' && depth == 0) {
      clauses.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  clauses.push_back(current);
  return clauses;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for (const std::string& clause : split_clauses(text)) {
    if (clause.empty()) {
      continue;
    }
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      bad(clause, "expected key=value");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "drop") {
      spec.drop = parse_probability(clause, value);
      if (spec.drop >= 1.0) {
        bad(clause, "drop must be < 1");
      }
    } else if (key == "corrupt") {
      spec.corrupt = parse_probability(clause, value);
    } else if (key == "crash") {
      CrashWave wave;
      const std::size_t at = value.find('@');
      const std::string frac_text = value.substr(0, at);
      wave.fraction = parse_probability(clause, frac_text);
      if (at != std::string::npos) {
        const std::string window = value.substr(at + 1);
        if (window.size() < 5 || window.front() != '[' || window.back() != ']') {
          bad(clause, "window must look like @[A,B]");
        }
        const std::string inner = window.substr(1, window.size() - 2);
        const std::size_t comma = inner.find(',');
        if (comma == std::string::npos) {
          bad(clause, "window must look like @[A,B]");
        }
        wave.start = parse_step(clause, inner.substr(0, comma));
        wave.end = parse_step(clause, inner.substr(comma + 1));
        if (wave.start >= wave.end) {
          bad(clause, "window needs A < B");
        }
      }
      spec.crash_waves.push_back(wave);
    } else if (key == "byzantine") {
      const std::size_t colon = value.find(':');
      spec.byzantine_fraction =
          parse_probability(clause, value.substr(0, colon));
      if (colon != std::string::npos) {
        const std::string lie = value.substr(colon + 1);
        spec.byzantine_lie = parse_integer<Opinion>(lie);
        if (!spec.byzantine_lie) {
          bad(clause, "fixed lie " + integer_expectation<Opinion>() +
                          ", got '" + lie + "'");
        }
      }
    } else if (key == "seed") {
      spec.seed = parse_integer<std::uint64_t>(value);
      if (!spec.seed) {
        bad(clause, "seed " + integer_expectation<std::uint64_t>() +
                        ", got '" + value + "'");
      }
    } else {
      bad(clause, "unknown key");
    }
  }  // for clause
  double total_fraction = spec.byzantine_fraction;
  for (const CrashWave& wave : spec.crash_waves) {
    total_fraction += wave.fraction;
  }
  if (total_fraction > 1.0) {
    throw std::invalid_argument(
        "fault spec: crash + byzantine fractions exceed 1");
  }
  return spec;
}

FaultPlan materialize_fault_plan(const FaultSpec& spec, VertexId n,
                                 std::uint64_t fault_seed, Rng& rng) {
  FaultPlan plan;
  plan.drop(spec.drop);
  plan.corrupt(spec.corrupt);
  plan.fault_seed(spec.seed.value_or(fault_seed));

  // One shuffled pool; Byzantine vertices first, then each crash wave takes
  // the next block, so all fault sets are disjoint by construction.
  std::vector<VertexId> pool(n);
  std::iota(pool.begin(), pool.end(), VertexId{0});
  rng.shuffle(pool);
  std::size_t cursor = 0;

  const auto take = [&](double fraction) {
    const auto want = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(n)));
    const std::size_t got = std::min(want, pool.size() - cursor);
    const std::size_t first = cursor;
    cursor += got;
    return std::pair{first, cursor};
  };

  const auto [byz_lo, byz_hi] = take(spec.byzantine_fraction);
  for (std::size_t i = byz_lo; i < byz_hi; ++i) {
    if (spec.byzantine_lie) {
      plan.byzantine_fixed(pool[i], *spec.byzantine_lie);
    } else {
      plan.byzantine_random(pool[i]);
    }
  }
  for (const CrashWave& wave : spec.crash_waves) {
    const auto [lo, hi] = take(wave.fraction);
    for (std::size_t i = lo; i < hi; ++i) {
      plan.crash(pool[i], wave.start, wave.end);
    }
  }
  plan.validate();
  return plan;
}

std::string fault_spec_help() {
  return "drop=P | corrupt=P | crash=F[@[A,B]] | byzantine=F[:LIE] | seed=S";
}

}  // namespace divlib
