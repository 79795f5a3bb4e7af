#include "obs/run_metrics.hpp"

#include "obs/jsonl.hpp"

namespace divlib {

void RunMetrics::record_mode_switch(std::uint64_t step, bool jump_mode,
                                    double active_probability,
                                    std::uint64_t discordant_pairs) {
  if (mode_timeline.size() >= max_samples) {
    ++mode_switches_dropped;
    return;
  }
  mode_timeline.push_back({step, jump_mode, active_probability,
                           discordant_pairs});
}

void RunMetrics::record_activity(std::uint64_t step, double active_probability,
                                 std::uint64_t discordant_pairs) {
  if (activity.size() >= max_samples) {
    ++activity_dropped;
    return;
  }
  activity.push_back({step, active_probability, discordant_pairs});
}

std::string RunMetrics::to_json() const {
  std::string timeline_json = "[";
  for (std::size_t i = 0; i < mode_timeline.size(); ++i) {
    const ModeSwitch& m = mode_timeline[i];
    if (i > 0) {
      timeline_json.push_back(',');
    }
    JsonObject entry;
    entry.field("step", m.step)
        .field("mode", m.jump_mode ? "jump" : "naive")
        .field("active_probability", m.active_probability)
        .field("discordant_pairs", m.discordant_pairs);
    timeline_json += entry.str();
  }
  timeline_json.push_back(']');

  std::string activity_json = "[";
  for (std::size_t i = 0; i < activity.size(); ++i) {
    const ActivitySample& s = activity[i];
    if (i > 0) {
      activity_json.push_back(',');
    }
    JsonObject entry;
    entry.field("step", s.step)
        .field("active_probability", s.active_probability)
        .field("discordant_pairs", s.discordant_pairs);
    activity_json += entry.str();
  }
  activity_json.push_back(']');

  JsonObject object;
  object.field("scheduled_steps", scheduled_steps)
      .field("effective_steps", effective_steps)
      .field("effective_ratio", effective_ratio())
      .field("lazy_steps_skipped", lazy_steps_skipped)
      .field("tracker_rebuilds", tracker_rebuilds)
      .field("frozen_tail_steps", frozen_tail_steps)
      .raw_field("mode_timeline", timeline_json)
      .raw_field("activity", activity_json)
      .field("mode_switches_dropped", mode_switches_dropped)
      .field("activity_dropped", activity_dropped)
      .field("wall_seconds_total", wall_seconds_total)
      .field("wall_seconds_jump", wall_seconds_jump)
      .field("wall_seconds_naive", wall_seconds_naive);
  return object.str();
}

}  // namespace divlib
