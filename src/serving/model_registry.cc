#include "serving/model_registry.h"

#include <dirent.h>

#include <algorithm>

#include "serving/frozen_model.h"

namespace autoac {
namespace {

/// Splits "name=path[,name=path...]" into ordered (name, path) pairs.
Status ParseModelsSpec(const std::string& spec,
                       std::vector<std::pair<std::string, std::string>>* out) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return Status::Error("malformed --models entry \"" + item +
                           "\" (want name=path)");
    }
    std::string name = item.substr(0, eq);
    for (const auto& existing : *out) {
      if (existing.first == name) {
        return Status::Error("duplicate model name \"" + name +
                             "\" in --models");
      }
    }
    out->emplace_back(name, item.substr(eq + 1));
  }
  if (out->empty()) return Status::Error("--models spec is empty");
  return Status::Ok();
}

/// Scans `dir` for *.aacm files; the stem names the model. Sorted so the
/// default model (first entry) is stable across rescans.
Status ScanModelDir(const std::string& dir,
                    std::vector<std::pair<std::string, std::string>>* out) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Error("cannot open --model_dir " + dir);
  }
  constexpr const char kSuffix[] = ".aacm";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  while (dirent* entry = ::readdir(d)) {
    std::string file = entry->d_name;
    if (file.size() <= kSuffixLen ||
        file.compare(file.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
      continue;
    }
    out->emplace_back(file.substr(0, file.size() - kSuffixLen),
                      dir + "/" + file);
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  if (out->empty()) {
    return Status::Error("no *.aacm artifacts in --model_dir " + dir);
  }
  return Status::Ok();
}

}  // namespace

void ModelRegistry::set_mutations_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  mutations_enabled_ = enabled;
}

bool ModelRegistry::mutations_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mutations_enabled_;
}

void ModelRegistry::Register(const std::string& name,
                             std::shared_ptr<InferenceSession> session) {
  AUTOAC_CHECK(session != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  entries_[name] =
      Entry{"", session->frozen().fingerprint, std::move(session)};
  if (default_name_.empty()) default_name_ = name;
}

Status ModelRegistry::LoadFromSpec(const std::string& models_spec,
                                   const std::string& model_dir) {
  if (models_spec.empty() == model_dir.empty()) {
    return Status::Error(
        "exactly one of --models and --model_dir must be given");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    models_spec_ = models_spec;
    model_dir_ = model_dir;
  }
  StatusOr<ReloadReport> report = Reload();
  return report.ok() ? Status::Ok() : report.status();
}

StatusOr<ModelRegistry::ReloadReport> ModelRegistry::Reload() {
  std::string models_spec, model_dir;
  std::map<std::string, Entry> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    models_spec = models_spec_;
    model_dir = model_dir_;
    current = entries_;
  }
  if (models_spec.empty() && model_dir.empty()) {
    return Status::Error(
        "registry was not configured from a spec; nothing to reload");
  }
  std::vector<std::pair<std::string, std::string>> resolved;
  Status spec_status = models_spec.empty()
                           ? ScanModelDir(model_dir, &resolved)
                           : ParseModelsSpec(models_spec, &resolved);
  if (!spec_status.ok()) return spec_status;

  // All-or-nothing: build the full next map first. Artifact loads and
  // session construction (one tape-free forward each) happen outside mu_
  // so concurrent Lookup()s keep being served from the current set.
  ReloadReport report;
  std::map<std::string, Entry> next;
  for (const auto& [name, path] : resolved) {
    if (next.count(name) != 0) {
      return Status::Error("duplicate model name \"" + name + "\"");
    }
    auto it = current.find(name);
    if (it != current.end()) {
      // Fast path for hot reloads: the stored fingerprint sits in the
      // artifact header behind the container CRC, so an unchanged artifact
      // is detected without parsing the graph or any tensor. A peek
      // failure falls through to the full load, whose error message names
      // the model.
      StatusOr<uint64_t> peeked = PeekFrozenFingerprint(path);
      if (peeked.ok() && peeked.value() == it->second.fingerprint) {
        next[name] = it->second;
        next[name].path = path;
        report.unchanged.push_back(name);
        continue;
      }
    }
    const std::string failed = "model \"" + name + "\" (" + path + "): ";
    StatusOr<FrozenModel> frozen = LoadFrozenModel(path);
    if (!frozen.ok()) return Status::Error(failed + frozen.status().message());
    if (it != current.end() &&
        it->second.fingerprint == frozen.value().fingerprint) {
      // Same content fingerprint: keep the live session, skip the forward.
      next[name] = it->second;
      next[name].path = path;
      report.unchanged.push_back(name);
    } else {
      // A changed fingerprint means a different artifact: the old
      // session's deltas were relative to a graph that no longer serves,
      // so they are discarded with it.
      StatusOr<std::shared_ptr<InferenceSession>> created =
          InferenceSession::Create(frozen.TakeValue());
      if (!created.ok()) {
        return Status::Error(failed + created.status().message());
      }
      std::shared_ptr<InferenceSession> session = created.TakeValue();
      next[name] =
          Entry{path, session->frozen().fingerprint, std::move(session)};
      (it == current.end() ? report.loaded : report.reloaded)
          .push_back(name);
    }
  }
  for (const auto& [name, entry] : current) {
    (void)entry;
    if (next.count(name) == 0) report.removed.push_back(name);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.swap(next);
    if (entries_.count(default_name_) == 0) {
      default_name_ = resolved.front().first;
    }
  }
  return report;
}

std::shared_ptr<InferenceSession> ModelRegistry::Lookup(
    const std::string& name, std::string* resolved) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& key = name.empty() ? default_name_ : name;
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (resolved != nullptr) *resolved = key;
  return it->second.session;
}

std::vector<ModelRegistry::ModelInfo> ModelRegistry::Models() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelInfo> models;
  models.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    models.push_back(ModelInfo{name, entry.path,
                               entry.session->frozen().model_name,
                               entry.fingerprint, name == default_name_});
  }
  return models;
}

std::string ModelRegistry::default_model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_name_;
}

int64_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

}  // namespace autoac
