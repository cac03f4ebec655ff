#include "util/fault.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace autoac {
namespace {

struct ArmedSite {
  std::string site;
  int64_t count = 0;  // 0-based hit index that fires; -1 = every hit
  std::atomic<int64_t> hits{0};

  ArmedSite(std::string s, int64_t c) : site(std::move(s)), count(c) {}
};

struct SpecTable {
  std::vector<std::unique_ptr<ArmedSite>> sites;
};

/// Parses a comma-separated spec list; malformed entries warn and are
/// skipped so one typo cannot silently disarm the rest.
SpecTable* ParseSpecTable(const std::string& env) {
  auto* table = new SpecTable();
  size_t start = 0;
  while (start <= env.size()) {
    size_t comma = env.find(',', start);
    if (comma == std::string::npos) comma = env.size();
    std::string entry = env.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    std::string site;
    int64_t count = 0;
    if (!ParseFaultSpec(entry, &site, &count)) {
      std::fprintf(stderr,
                   "warning: ignoring malformed AUTOAC_FAULT_INJECT entry "
                   "'%s' (expected <site>:<n> or <site>:*)\n",
                   entry.c_str());
      continue;
    }
    table->sites.push_back(std::make_unique<ArmedSite>(site, count));
  }
  return table;
}

/// The active table. Swapped only by SetFaultSpecForTest (under a mutex);
/// readers load it with acquire so a swapped-in table's entries are
/// visible. Swapped-out tables are never freed — a call site may still be
/// reading one — but SetFaultSpecForTest keeps them owned, and tests swap a
/// handful of times at most.
std::atomic<SpecTable*>& ActiveTable() {
  static std::atomic<SpecTable*> table{[]() -> SpecTable* {
    const char* env = std::getenv("AUTOAC_FAULT_INJECT");
    if (env == nullptr || env[0] == '\0') return new SpecTable();
    return ParseSpecTable(env);
  }()};
  return table;
}

/// Looks up `site` and counts a hit against it. Returns true when this hit
/// fires per the armed count.
bool HitFires(const char* site) {
  SpecTable* table = ActiveTable().load(std::memory_order_acquire);
  for (const auto& armed : table->sites) {
    if (armed->site != site) continue;
    int64_t hit = armed->hits.fetch_add(1, std::memory_order_relaxed);
    return armed->count < 0 || hit == armed->count;
  }
  return false;
}

bool Quiet() {
  SpecTable* table = ActiveTable().load(std::memory_order_acquire);
  return table->sites.empty();
}

std::atomic<int64_t>& SoftTriggers() {
  static std::atomic<int64_t> count{0};
  return count;
}

/// Soft triggers note themselves on stderr only when AUTOAC_FAULT_VERBOSE
/// is set: a '*'-armed site in a chaos soak fires thousands of times (and
/// fires in child processes like serve clients, whose stdout+stderr logs
/// are diffed by the smoke scripts) — the trigger count is already
/// observable via FaultTriggersObserved() / the serve stats audit.
bool SoftNotesEnabled() {
  static bool enabled = [] {
    const char* env = std::getenv("AUTOAC_FAULT_VERBOSE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return enabled;
}

}  // namespace

bool ParseFaultSpec(const std::string& spec, std::string* site,
                    int64_t* count) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  if (spec.compare(colon + 1, std::string::npos, "*") == 0) {
    *site = spec.substr(0, colon);
    *count = -1;
    return true;
  }
  char* end = nullptr;
  long long n = std::strtoll(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || n < 0) return false;
  *site = spec.substr(0, colon);
  *count = n;
  return true;
}

void FaultPoint(const char* site) {
  if (Quiet()) return;
  if (!HitFires(site)) return;
  std::fprintf(stderr, "fault injected: site '%s' — dying\n", site);
  _exit(kFaultInjectExitCode);
}

bool FaultTriggered(const char* site) {
  if (Quiet()) return false;
  if (!HitFires(site)) return false;
  SoftTriggers().fetch_add(1, std::memory_order_relaxed);
  if (SoftNotesEnabled()) {
    std::fprintf(stderr, "fault injected: site '%s' — degrading\n", site);
  }
  return true;
}

int64_t FaultTriggersObserved() {
  return SoftTriggers().load(std::memory_order_relaxed);
}

void SetFaultSpecForTest(const std::string& spec) {
  static std::mutex mu;
  // Heap-allocated and never destroyed, so the retired tables stay
  // reachable (not leaked) for any reader still inside one at exit.
  static auto* retired = new std::vector<std::unique_ptr<SpecTable>>();
  std::lock_guard<std::mutex> lock(mu);
  retired->emplace_back(ActiveTable().exchange(ParseSpecTable(spec),
                                               std::memory_order_acq_rel));
}

}  // namespace autoac
