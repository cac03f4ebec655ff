#include "serving/feed.h"

#include <memory>

#include "serving/server.h"

namespace autoac {
namespace {

void Skip(FeedReplayReport* report, size_t line_no, const std::string& why) {
  ++report->skipped;
  if (static_cast<int64_t>(report->errors.size()) <
      FeedReplayReport::kMaxErrors) {
    report->errors.push_back("line " + std::to_string(line_no) + ": " + why);
  }
}

}  // namespace

FeedReplayReport ReplayMutationFeed(ModelRegistry* registry,
                                    const std::vector<std::string>& lines) {
  FeedReplayReport report;
  for (size_t i = 0; i < lines.size(); ++i) {
    ServeRequest request;
    std::string error;
    if (!ParseServeRequestLine(lines[i], &request, &error)) {
      Skip(&report, i + 1, error);
      continue;
    }
    if (!request.is_mutation) {
      Skip(&report, i + 1, "not a mutation");
      continue;
    }
    std::shared_ptr<InferenceSession> session =
        registry->Lookup(request.model);
    if (session == nullptr || !registry->mutations_enabled()) {
      Skip(&report, i + 1, "unknown model \"" + request.model + "\"");
      continue;
    }
    StatusOr<MutationResult> applied = session->Apply(request.mutation);
    if (!applied.ok()) {
      Skip(&report, i + 1, applied.status().message());
      continue;
    }
    ++report.applied;
    report.dirty_rows += applied.value().dirty_rows;
  }
  return report;
}

}  // namespace autoac
