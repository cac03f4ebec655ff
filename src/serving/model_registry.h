#ifndef AUTOAC_SERVING_MODEL_REGISTRY_H_
#define AUTOAC_SERVING_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serving/inference_session.h"
#include "util/status.h"

namespace autoac {

/// Names and owns the InferenceSessions one server process hosts
/// (DESIGN.md §10). Requests carry an optional "model" key; the registry
/// resolves it (empty string = default model) to a shared session. Sessions
/// are handed out as shared_ptr so a reload can swap the registry's entry
/// while requests already holding the old session finish against it — the
/// old session is destroyed when its last in-flight holder releases it.
///
/// Two ways to populate it:
///  - Register(): hand in an already-built session (tests, single-model
///    embedding).
///  - LoadFromSpec() + Reload(): resolve a CLI spec — either an explicit
///    "name=path[,name=path...]" list or a directory scanned for *.aacm
///    files — load every artifact, and later re-resolve the same spec on
///    SIGHUP. A reload is atomic and all-or-nothing: every artifact is
///    loaded and validated first, then the whole entry map is swapped; any
///    load failure leaves the serving set untouched. Artifacts whose
///    content fingerprint is unchanged keep their existing session; the
///    fingerprint comes from the artifact header alone
///    (PeekFrozenFingerprint), so an unchanged artifact costs one
///    CRC-checked file read — no payload parse, no session rebuild, no
///    forward.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers an in-process session under `name`, replacing any existing
  /// entry. The first registered model becomes the default.
  void Register(const std::string& name,
                std::shared_ptr<InferenceSession> session);

  /// Enables streaming mutations (DESIGN.md §12): the server and the feed
  /// replay pass graph deltas to the hosted sessions, which the registry
  /// builds with `staleness_ms` (Register()ed sessions keep the options
  /// they were built with). Set before LoadFromSpec. Reload semantics: a
  /// fingerprint-unchanged artifact keeps its session — accumulated deltas
  /// survive a SIGHUP; a changed fingerprint swaps in a fresh session and
  /// the old deltas are discarded with the old one (clients guard against
  /// racing that with "expect_fingerprint").
  void set_mutation_options(bool enabled, int64_t staleness_ms);
  bool mutations_enabled() const;

  /// Configures the artifact spec and performs the initial load. Exactly
  /// one of `models_spec` ("name=path[,name=path...]") and `model_dir`
  /// (directory scanned for *.aacm; the file stem names the model) must be
  /// non-empty. The first spec entry (lexicographically first file for a
  /// directory) becomes the default model.
  Status LoadFromSpec(const std::string& models_spec,
                      const std::string& model_dir);

  /// Outcome of one Reload(), for operator logging.
  struct ReloadReport {
    std::vector<std::string> loaded;     // new names
    std::vector<std::string> reloaded;   // fingerprint changed, new session
    std::vector<std::string> unchanged;  // fingerprint identical, kept
    std::vector<std::string> removed;    // no longer in the spec
  };

  /// Re-resolves the spec set by LoadFromSpec() (re-scans the directory)
  /// and atomically swaps in the new artifact set. Requires a prior
  /// LoadFromSpec(); a Register()-only registry has nothing to re-read.
  StatusOr<ReloadReport> Reload();

  /// Session for `name`; the empty string resolves the default model.
  /// Returns nullptr for unknown names. When `resolved` is non-null it
  /// receives the concrete model name (so "" comes back as the default's
  /// name — the server keys its per-model queues on it).
  std::shared_ptr<InferenceSession> Lookup(
      const std::string& name, std::string* resolved = nullptr) const;

  /// One row per hosted model, for startup/reload logging.
  struct ModelInfo {
    std::string name;
    std::string path;  // empty for Register()ed sessions
    std::string arch;  // FrozenModel::model_name, e.g. "SimpleHGN"
    uint64_t fingerprint = 0;
    bool is_default = false;
  };
  std::vector<ModelInfo> Models() const;

  std::string default_model() const;
  int64_t size() const;

 private:
  struct Entry {
    std::string path;
    uint64_t fingerprint = 0;
    std::shared_ptr<InferenceSession> session;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::string default_name_;
  std::string models_spec_;
  std::string model_dir_;
  InferenceSession::Options session_options_;
  bool mutations_enabled_ = false;
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_MODEL_REGISTRY_H_
