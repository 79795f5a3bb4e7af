#include "core/discordance_tracker.hpp"

namespace divlib {

// The scalar OpinionState instantiation lives here; the lane jump engine's
// PlaneLaneView instantiation is implicit in batch_engine.cpp.
template class BasicDiscordanceTracker<OpinionState>;

}  // namespace divlib
