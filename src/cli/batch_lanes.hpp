// --batch-lanes validation and refusal text, shared by divsim and the CLI
// tests.
//
// Every plain-DIV replica runs on its own one-lane plane, so the width is
// accepted and validated but not applied: scripts that pass it keep
// working, and divsim prints a note when it is larger than 1.
//
// The lane count reaches the tool as a raw u64 from Args::get_u64.  It used
// to be clamped with max(1, static_cast<unsigned>(raw)), which silently
// wrapped values above UINT_MAX (--batch-lanes 4294967297 ran with 1 lane)
// and silently promoted an explicit 0 to 1.  Both are caller mistakes, so
// validate_batch_lanes refuses them loudly instead (through narrow_flag,
// cli/flag_range.hpp); the accepted range is [1, kMaxBatchLanes].
//
// The refusal strings for the scalar-only feature combinations (and the
// jump engine's process refusal) live here as constants so test_cli can
// assert the exact text users see.
#pragma once

#include <cstdint>

#include "cli/flag_range.hpp"

namespace divlib {

// Upper bound on --batch-lanes.  A larger value is almost certainly a
// typo'd or overflowed input, so it is refused loudly.
inline constexpr unsigned kMaxBatchLanes = 4096;

// Refused combinations: the lane kernels inline the plain DIV update rule
// and keep no per-step hooks, so decorated processes and tracing stay on
// the scalar engines.
inline constexpr const char* kBatchLanesProcessRefusal =
    "--batch-lanes only supports --process div (the batch engine inlines "
    "the DIV update rule; other processes use the scalar engines)";
inline constexpr const char* kBatchLanesFaultRefusal =
    "--batch-lanes cannot honor --fault: decorated processes need the "
    "scalar engines' virtual dispatch";
inline constexpr const char* kBatchLanesTraceRefusal =
    "--batch-lanes does not support --trace (per-step tracing is a "
    "scalar-engine feature)";

// --engine jump re-derives the next effective step from DIV's discordance
// structure, so any other process is refused at parse time rather than
// faulting every replica of a run that then reports success.
inline constexpr const char* kJumpProcessRefusal =
    "--engine=jump only supports --process div (the jump chain skips lazy "
    "steps of the DIV update rule); use the step engine for other "
    "processes";

// Validates a raw --batch-lanes value BEFORE any narrowing: 0 and anything
// above kMaxBatchLanes throw std::invalid_argument with the offending value
// in the message.
inline unsigned validate_batch_lanes(std::uint64_t raw) {
  return narrow_flag("--batch-lanes", raw, 1u, kMaxBatchLanes);
}

}  // namespace divlib
