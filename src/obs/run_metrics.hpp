// Per-run trajectory telemetry populated by the engines.
//
// The paper's claims are about *trajectories* -- heavy-tailed completion
// times, the Lemma 10 supermartingale's decay, the regime boundary between
// lazy-step-dominated phases and the two-adjacent endgame random walk -- but
// a RunResult only exposes the endpoint.  RunMetrics records what happened
// along the way, cheaply enough to leave on in production runs:
//
//   * a mode-switch timeline (step-stamped entries into jump / naive mode,
//     with the tracker's activity at each switch),
//   * periodic activity samples (active-step probability and discordant-pair
//     count), taken in jump mode where the tracker makes them exact,
//   * scheduled vs. effective step totals, lazy steps skipped, and the
//     tracker rebuild count behind the hybrid engine's resyncs,
//   * a wall-clock split between jump-mode and naive-mode segments.
//
// Determinism contract: every field except the wall_* ones is a function of
// (graph, seed, options) alone -- events are stamped with the scheduled-step
// clock, never with time -- so two runs of the same replica produce
// byte-identical metric content on any machine or thread schedule.  The
// wall_* fields are measured with a monotonic clock and are explicitly
// NON-reproducible; consumers must not diff them.
//
// Opt in by pointing RunOptions::metrics at a RunMetrics; every engine --
// scalar or lane kernel (engine/batch_engine) -- leaves a null pointer
// completely untouched (zero overhead when disabled).  A lane kernel's sink
// holds the same content as a scalar run of that seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace divlib {

// Entry into a mode at a scheduled step (the timeline starts with the mode
// the engine launches in, stamped step 0).
struct ModeSwitch {
  std::uint64_t step = 0;
  bool jump_mode = false;            // true: jump mode, false: naive scheduled
  // Tracker state at the switch; exact when entering or leaving jump mode
  // (the tracker is fresh there), 0/0 for the naive engine.
  double active_probability = 0.0;
  std::uint64_t discordant_pairs = 0;
};

// Periodic sample of the discordance structure (jump mode only).
struct ActivitySample {
  std::uint64_t step = 0;
  double active_probability = 0.0;
  std::uint64_t discordant_pairs = 0;
};

struct RunMetrics {
  // --- configuration (set by the caller before the run) ---
  // Effective steps between activity samples in jump mode; 0 disables
  // activity sampling.  Samples are step-stamped, so any stride yields
  // deterministic content.
  std::uint64_t activity_stride = 1024;
  // Hard cap on stored samples/events; once reached, further ones are
  // counted in *_dropped instead of stored (a run near the mixing cutoff
  // can switch modes many times).  The cap cuts the same prefix for every
  // schedule, so determinism survives.
  std::size_t max_samples = 65536;

  // --- deterministic trajectory telemetry (engine-written) ---
  std::vector<ModeSwitch> mode_timeline;
  std::vector<ActivitySample> activity;
  std::uint64_t mode_switches_dropped = 0;
  std::uint64_t activity_dropped = 0;
  std::uint64_t scheduled_steps = 0;
  std::uint64_t effective_steps = 0;   // state-changing interactions
  std::uint64_t lazy_steps_skipped = 0;  // provably-lazy steps never simulated
  std::uint64_t tracker_rebuilds = 0;  // O(n+m) resyncs on naive->jump entry
  std::uint64_t frozen_tail_steps = 0; // steps burned by a frozen/watchdog exit

  // --- wall-clock split (NON-REPRODUCIBLE: monotonic-clock measurements) ---
  double wall_seconds_total = 0.0;
  double wall_seconds_jump = 0.0;   // time spent inside jump-mode segments
  double wall_seconds_naive = 0.0;  // time spent inside naive segments

  double effective_ratio() const {
    return scheduled_steps == 0
               ? 0.0
               : static_cast<double>(effective_steps) /
                     static_cast<double>(scheduled_steps);
  }

  // Appends respecting max_samples (engine helpers).
  void record_mode_switch(std::uint64_t step, bool jump_mode,
                          double active_probability,
                          std::uint64_t discordant_pairs);
  void record_activity(std::uint64_t step, double active_probability,
                       std::uint64_t discordant_pairs);

  // Renders the metrics as one JSON object (no trailing newline), with
  // nested arrays for the timeline and activity samples and every
  // non-reproducible field under a wall_* key.  Callers splice it into a
  // telemetry record via JsonObject::raw_field("metrics", ...).
  std::string to_json() const;
};

}  // namespace divlib
