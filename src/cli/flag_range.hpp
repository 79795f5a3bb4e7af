// Range-checked narrowing for divsim's integer flags.
//
// Args parses integers as int64 / uint64 while the engines take narrower
// types, and a bare static_cast would wrap silently (--workers 4294967298
// would fork 2 workers, --k 4294967299 would run with opinions 1..3).  Every
// narrowed flag goes through narrow_flag instead, which checks the parsed
// value against [lo, hi] BEFORE narrowing and refuses anything outside with
// the flag and the value in the message.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "cli/args.hpp"
#include "core/opinion_state.hpp"

namespace divlib {

// Returns `raw` as a T when lo <= raw <= hi (compared without conversion,
// so a negative int64 never passes as a huge unsigned); otherwise throws
// std::invalid_argument("<flag> must be in [lo, hi], got <raw>").
template <typename T, typename Raw>
T narrow_flag(std::string_view flag, Raw raw, T lo, T hi) {
  if (std::cmp_less(raw, lo) || std::cmp_greater(raw, hi)) {
    throw std::invalid_argument(std::string(flag) + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(raw));
  }
  return static_cast<T>(raw);
}

// --k (default 5): opinions 1..k, so k >= 1 and within the Opinion range.
inline Opinion k_flag(const Args& args) {
  return narrow_flag<Opinion>("--k", args.get_int("k", 5), 1,
                              std::numeric_limits<Opinion>::max());
}

// An unsigned count such as --threads or --workers (default 0), at most hi.
inline unsigned unsigned_flag(
    const Args& args, const std::string& key,
    unsigned hi = std::numeric_limits<unsigned>::max()) {
  return narrow_flag("--" + key, args.get_u64(key, 0), 0u, hi);
}

}  // namespace divlib
