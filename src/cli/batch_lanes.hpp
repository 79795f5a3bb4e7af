// --batch-lanes validation and refusal text, shared by divsim and the CLI
// tests.
//
// The lane count reaches the tool as a raw u64 from Args::get_u64.  It used
// to be clamped with max(1, static_cast<unsigned>(raw)), which silently
// wrapped values above UINT_MAX (--batch-lanes 4294967297 ran with 1 lane)
// and silently promoted an explicit 0 to 1.  Both are caller mistakes, so
// validate_batch_lanes refuses them loudly instead (through narrow_flag,
// cli/flag_range.hpp); the accepted range is [1, kMaxBatchLanes]
// (engine/supervisor.hpp), matching the guard run_supervised_set applies
// to SupervisorOptions::batch_lanes.
//
// The refusal strings for the scalar-only feature combinations (and the
// jump engine's process refusal) live here as constants so test_cli can
// assert the exact text users see.
#pragma once

#include <cstdint>

#include "cli/flag_range.hpp"
#include "engine/supervisor.hpp"

namespace divlib {

// Refused combinations: the batch engines inline the plain DIV update rule
// and keep no per-step hooks, so decorated processes and tracing stay on
// the scalar engines.  (--engine jump is NOT refused: jump-chain runs batch
// through run_batch_jump.)
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
// in the message.  Returns the value as the unsigned the engines take.
inline unsigned validate_batch_lanes(std::uint64_t raw) {
  return narrow_flag("--batch-lanes", raw, 1u, kMaxBatchLanes);
}

}  // namespace divlib
