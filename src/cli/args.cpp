#include "cli/args.hpp"

#include <stdexcept>

#include "cli/parse_number.hpp"

namespace divlib {

Args::Args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) {
    tokens.emplace_back(argv[i]);
  }
  parse(tokens);
}

Args::Args(const std::vector<std::string>& tokens) { parse(tokens); }

void Args::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string key = token.substr(2);
    if (key.empty()) {
      throw std::invalid_argument("Args: bare '--' is not supported");
    }
    const auto equals = key.find('=');
    if (equals != std::string::npos) {
      options_[key.substr(0, equals)] = key.substr(equals + 1);
      continue;
    }
    // "--key value" if the next token is not an option; otherwise a flag.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      options_[key] = tokens[i + 1];
      ++i;
    } else {
      options_[key] = "";
    }
  }
}

bool Args::has(const std::string& key) const {
  consumed_.insert(key);
  return options_.contains(key);
}

bool Args::flag(const std::string& key) const {
  consumed_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) {
    return false;
  }
  return it->second.empty() || it->second == "true" || it->second == "1";
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  consumed_.insert(key);
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const std::string text = get(key, "");
  if (text.empty()) {
    return fallback;
  }
  const auto value = parse_integer<std::int64_t>(text);
  if (!value) {
    throw std::invalid_argument("Args: --" + key + " expects an integer, got '" +
                                text + "'");
  }
  return *value;
}

std::uint64_t Args::get_u64(const std::string& key, std::uint64_t fallback) const {
  const std::string text = get(key, "");
  if (text.empty()) {
    return fallback;
  }
  const auto value = parse_integer<std::uint64_t>(text);
  if (!value) {
    throw std::invalid_argument("Args: --" + key +
                                " expects a non-negative integer, got '" + text +
                                "'");
  }
  return *value;
}

std::uint64_t Args::get_positive_u64(const std::string& key,
                                     std::uint64_t fallback) const {
  const std::uint64_t value = get_u64(key, fallback);
  if (value == 0) {
    throw std::invalid_argument("Args: --" + key + " must be positive");
  }
  return value;
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string text = get(key, "");
  if (text.empty()) {
    return fallback;
  }
  const auto value = parse_finite(text);
  if (!value) {
    throw std::invalid_argument("Args: --" + key +
                                " expects a finite number, got '" + text + "'");
  }
  return *value;
}

std::vector<std::string> Args::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : options_) {
    if (!consumed_.contains(key)) {
      unused.push_back(key);
    }
  }
  return unused;
}

}  // namespace divlib
