#ifndef AUTOAC_SERVING_FEED_H_
#define AUTOAC_SERVING_FEED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serving/model_registry.h"

namespace autoac {

/// Outcome of replaying a --mutation_feed file at startup.
struct FeedReplayReport {
  int64_t applied = 0;     // deltas validated and applied
  int64_t skipped = 0;     // malformed / non-mutation / failed lines
  int64_t dirty_rows = 0;  // logits rows the applied deltas dirtied
  /// One "line N: why" entry per skipped line, capped at kMaxErrors so a
  /// wholly corrupt feed cannot balloon memory; `skipped` counts them all.
  std::vector<std::string> errors;

  static constexpr int64_t kMaxErrors = 32;
};

/// Replays newline-JSON mutation lines into the registry's sessions (every
/// line skips when the registry has mutations disabled). A bad line — truncated JSON, unknown op, non-mutation
/// request, unknown model, or an apply failure (e.g. bad attrs length) —
/// is skipped and counted, never fatal: a server must come up on the
/// well-formed remainder of its feed rather than refuse to start over one
/// corrupt line (DESIGN.md §13). Lines are 1-indexed in error messages to
/// match editors.
FeedReplayReport ReplayMutationFeed(ModelRegistry* registry,
                                    const std::vector<std::string>& lines);

}  // namespace autoac

#endif  // AUTOAC_SERVING_FEED_H_
