// Jump-chain accelerated run loop for the DIV process.
//
// Near the end of a run almost every scheduled pair (v, w) already agrees
// and step() is a no-op; the naive loop burns its wall-clock simulating
// nothing.  In its lazy phases run_jump() simulates the embedded jump chain
// directly: it keeps the discordance structure in a DiscordanceTracker,
// draws the number of skipped lazy steps from a Geometric(p) with p the
// current active-step probability, then samples the effective pair with the
// exact conditional law of the scheduled scheme and applies the +-1 move
// with O(d) incremental maintenance.
//
// The engine is a *hybrid*: in dense phases (roughly, more than 1 in 16
// scheduled steps effective) the per-move tracker maintenance costs more
// than the lazy steps it skips, so the loop drops back to plain scheduled
// steps with the tracker left stale, and resynchronizes it via
// rebuild_counts() when a 4096-step window shows fewer than 1/64 of steps
// effective.  Both branches simulate the same chain and the switching rule
// is a function of the past trajectory only, so the trajectory distribution
// (including the scheduled-step clock) is identical to run()'s; only the
// wall-clock cost per *lazy* step drops to (amortized) zero.
//
// RunResult::steps counts SCHEDULED steps -- the lazy steps that were
// skipped are included -- so every existing experiment table and Theorem 1
// comparison stays directly comparable with the naive engine; the extra
// effective_steps field counts the state-changing interactions actually
// simulated.
//
// Only the plain DivProcess is supported: the engine re-derives the next
// effective interaction from the discordance structure, which is only valid
// for the one-unit-toward-the-observed-opinion rule with no decoration.
// Any other process -- in particular a FaultyProcess wrapper, whose lazy
// steps are NOT no-ops (crash/recovery schedules and Byzantine lies depend
// on the step clock) -- is rejected with std::invalid_argument.
#pragma once

#include "engine/engine.hpp"

namespace divlib {

// Mode-switch thresholds, from measurements on a random 16-regular graph at
// n = 2^17 (DESIGN.md, "Jump-chain engine"): a naive scheduled step costs
// ~25 ns while a jump-mode effective step costs ~0.5 us (the geometric draw
// plus O(d) tracker maintenance with cache-cold neighbor rows), so the jump
// chain only wins when fewer than ~1 in 20 scheduled steps changes state.
// The hysteresis band [1/64, 1/16] straddles that break-even so a trajectory
// hovering near it does not thrash the O(n + m) rebuild_counts() resync.
// Shared by the scalar hybrid loop and run_lane_jump, whose mode machine
// must switch at exactly the same thresholds to stay bit-identical.
inline constexpr double kJumpExitActiveProbability = 1.0 / 16.0;
inline constexpr std::uint64_t kNaiveWindow = 4096;
inline constexpr std::uint64_t kJumpEnterEffectiveMax = kNaiveWindow / 64;

struct JumpRunResult : RunResult {
  // Effective (state-changing) interactions applied; steps - effective_steps
  // scheduled steps were either skipped as provably lazy (jump mode) or
  // simulated as no-ops (naive mode).
  std::uint64_t effective_steps = 0;
  // Transitions between jump mode and naive scheduled-step mode (both
  // directions counted); 0 means the whole run stayed in jump mode.
  std::uint64_t mode_switches = 0;
};

// Runs `process` (which must be a DivProcess; anything else throws
// std::invalid_argument) on `state` until `options.stop` holds or the
// scheduled-step cap is hit.  Exceptions propagate.
JumpRunResult run_jump(Process& process, OpinionState& state, Rng& rng,
                       const RunOptions& options);

// Like run_jump(), but converts exceptions into status == kFaulted with the
// exception text in `fault` (mirrors run_guarded()).
JumpRunResult run_jump_guarded(Process& process, OpinionState& state, Rng& rng,
                               const RunOptions& options);

}  // namespace divlib
