// Minimal command-line argument parser for the divsim tool.
//
// Grammar: positional arguments and --key value / --key=value / --flag
// options.  Typed getters with defaults; unknown-option detection is the
// caller's responsibility via consumed-key tracking.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace divlib {

class Args {
 public:
  // Parses argv[1..argc); throws std::invalid_argument on a dangling
  // "--key" with no value at the end being treated as a flag is allowed.
  Args(int argc, const char* const* argv);
  explicit Args(const std::vector<std::string>& tokens);

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;
  // Flag: present with no value, or value "true"/"1".
  bool flag(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  // The numeric getters throw std::invalid_argument naming the flag and the
  // value unless the whole token parses ("4x" and "1e11" are not integers);
  // get_double also refuses non-finite values ("nan", "inf").
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  // Refuses a negative value ("-1") instead of wrapping it to 2^64 - 1.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  // Like get_u64 but rejects 0 with std::invalid_argument -- for options
  // where zero is a silent footgun (--checkpoint-every, strides, cadences).
  std::uint64_t get_positive_u64(const std::string& key,
                                 std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  // Keys that were provided but never read by any getter -- used to report
  // typos ("--shceme").
  std::vector<std::string> unused_keys() const;

 private:
  void parse(const std::vector<std::string>& tokens);

  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  mutable std::set<std::string> consumed_;
};

}  // namespace divlib
