#ifndef AUTOAC_UTIL_FAULT_H_
#define AUTOAC_UTIL_FAULT_H_

#include <cstdint>
#include <string>

// Deterministic fault injection for crash-safety and chaos testing.
//
// Two kinds of sites share one spec language:
//
//  * Hard (kill) sites — long-running stages call FaultPoint("<site>") at
//    well-defined points (epoch boundaries, the middle of an atomic file
//    write). The n-th (0-based) hit of an armed site terminates the process
//    immediately via _exit(kFaultInjectExitCode) — no destructors, no stdio
//    flushing, no atexit handlers — simulating a SIGKILL / power loss at
//    that exact point. scripts/crash_resume_check.sh uses this to verify
//    that a killed run recovers from its last good checkpoint.
//
//  * Soft (chaos) sites — the serving path calls FaultTriggered("<site>")
//    where an IO failure, delay, or concurrent event can be simulated
//    without killing the process (DESIGN.md §13). The call returns true
//    when the site is armed and the hit count matches; the caller then
//    follows its degraded path (short write, torn read, delayed accept,
//    forced reload, apply failure) and the tests assert the failure is
//    contained: counters incremented, fds stable, no crash.
//
// The spec comes from the environment variable
//
//   AUTOAC_FAULT_INJECT=<site>:<n>[,<site>:<n>...]
//
// where <n> is either the 0-based hit index that fires (every other hit is
// a no-op) or '*' to fire on every hit (chaos soaks). Whether a site kills
// or returns true is decided by which API the call site uses, not by the
// spec — arming an unknown site is simply inert.
//
// Registered hard sites (see DESIGN.md §9):
//   search_epoch  — top of each bi-level search epoch
//   train_epoch   — top of each (re)training epoch
//   atomic_write  — mid-payload inside io::WriteFileAtomic, before rename
// Registered soft sites (see DESIGN.md §13):
//   serve_partial_write    — SendAll truncates one send() to a single byte
//   serve_torn_read        — reader withholds the tail of one recv()
//   serve_delayed_accept   — accept loop stalls before handling a client
//   serve_mid_batch_reload — batcher runs the reload hook mid-batch
//   serve_mid_delta_reload — writer runs the reload hook just before it
//                            applies a delta
//   serve_mutation_apply   — a validated mutation fails to apply

namespace autoac {

/// Exit code used by injected faults, distinguishable from normal failures.
inline constexpr int kFaultInjectExitCode = 42;

/// Possibly terminates the process (see file comment). Near-zero cost when
/// AUTOAC_FAULT_INJECT is unset.
void FaultPoint(const char* site);

/// Soft query: true when `site` is armed and this hit's 0-based index
/// matches the spec (always true for '*'). Never kills the process.
/// Near-zero cost when AUTOAC_FAULT_INJECT is unset. Triggers are counted
/// (FaultTriggersObserved) but noted on stderr only when
/// AUTOAC_FAULT_VERBOSE is set — a '*'-armed chaos soak fires thousands of
/// times, including in child processes whose logs are diffed by the smoke
/// scripts.
bool FaultTriggered(const char* site);

/// Process-wide count of soft sites that have fired (FaultTriggered calls
/// that returned true). Lets the serving stats audit report how many chaos
/// events a run absorbed without threading a counter through every site.
int64_t FaultTriggersObserved();

/// Parses one "<site>:<n>" spec into its parts; `count` is -1 for '*'
/// (every hit). Returns false (and leaves the outputs untouched) when the
/// spec is malformed. Exposed for tests.
bool ParseFaultSpec(const std::string& spec, std::string* site,
                    int64_t* count);

/// Test hook: replaces the armed spec set (comma-separated, same syntax as
/// the environment variable; empty disarms everything) and resets every hit
/// counter. Malformed entries are ignored with a warning, matching the env
/// path. Tests that arm sites must disarm with SetFaultSpecForTest("")
/// before returning so later tests see a quiet process.
void SetFaultSpecForTest(const std::string& spec);

}  // namespace autoac

#endif  // AUTOAC_UTIL_FAULT_H_
