// ModelRegistry — the multi-model routing table of the serve layer.
//
// One serving process holds several named, fully loaded HdClassifiers
// (per-subject models, the paper's deployment unit: "the model training is
// done per subject") and routes every classify request by model name, with
// a configurable default for requests that name none.
//
// Concurrency / hot lifecycle: each route holds an atomically-published
// std::shared_ptr<const ModelEntry> snapshot (RCU-style). resolve() takes
// the internal mutex only long enough to copy that pointer; the worker
// then classifies against its snapshot entirely lock-free, so a
// concurrent reload() — which rebuilds the classifier from disk off-lock
// and swaps the pointer in — never blocks or is blocked by classify
// traffic. Readers still holding the old snapshot keep it alive until
// they finish; a failed reload swaps nothing, so the previous model keeps
// serving bit-identically and the failure is only *reported*, never a
// serving gap.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "hd/classifier.hpp"
#include "serve/protocol.hpp"

namespace pulphd::serve {

/// One registered model: routing name, ready-to-classify classifier, and
/// the file it came from ("" for models added in memory). Immutable once
/// published; reloads publish a fresh entry instead of mutating this one.
struct ModelEntry {
  std::string name;
  hd::HdClassifier classifier;
  std::string source_path;
};

/// A reader's view of one model: kept alive for as long as the holder
/// needs it, regardless of concurrent reloads.
using ModelSnapshot = std::shared_ptr<const ModelEntry>;

class ModelRegistry {
 public:
  /// Registers a ready classifier under `name` and returns its published
  /// snapshot. The first model added becomes the default until
  /// set_default overrides it. Throws std::runtime_error on an invalid
  /// name token or a duplicate name.
  ModelSnapshot add(const std::string& name, hd::HdClassifier classifier,
                    std::string source_path = "") PULPHD_EXCLUDES(mutex_);

  /// Loads a serialized model from `path`, registers it and returns its
  /// published snapshot. `name` may be empty, in which case the model's
  /// embedded name (serialization format v2) is used — an unnamed v1
  /// stream then fails with an error telling the operator to pass
  /// NAME=PATH. Every failure message includes both the model name (when
  /// known) and the offending path. `threads` is the host-thread knob
  /// applied to the loaded classifier (and re-applied on reload()).
  ModelSnapshot load_file(const std::string& name, const std::string& path,
                          std::size_t threads = 1) PULPHD_EXCLUDES(mutex_);

  /// Makes `name` the default route; throws std::runtime_error when no
  /// such model is registered.
  void set_default(const std::string& name) PULPHD_EXCLUDES(mutex_);

  /// Routes a request: "" resolves to the default model, anything else to
  /// the model of that name. Throws pulphd::CodedError(unknown-model) when
  /// the name is unknown or the registry is empty. The returned snapshot
  /// stays valid (and bit-identical) for as long as the caller holds it,
  /// across any number of concurrent reloads.
  ModelSnapshot resolve(const std::string& name) const PULPHD_EXCLUDES(mutex_);

  /// Re-loads `name` from its recorded source file and atomically swaps
  /// the fresh model in. Never throws on load problems: failure (unknown
  /// name, in-memory model with no source file, missing/corrupt file)
  /// leaves the previous model serving and is described in the result.
  /// The disk read and classifier rebuild happen off-lock — classify
  /// traffic is never blocked. (ReloadStatus is the wire-facing result
  /// row; see serve/protocol.hpp.)
  ReloadStatus reload(const std::string& name) PULPHD_EXCLUDES(mutex_);

  /// reload() for every registered model, in registration order.
  std::vector<ReloadStatus> reload_all() PULPHD_EXCLUDES(mutex_);

  std::size_t size() const PULPHD_EXCLUDES(mutex_);
  bool empty() const PULPHD_EXCLUDES(mutex_);
  std::string default_name() const PULPHD_EXCLUDES(mutex_);

  /// The `models` response rows for the current contents, in registration
  /// order (stable — routes are never removed or reordered).
  std::vector<ModelInfo> infos() const PULPHD_EXCLUDES(mutex_);

 private:
  /// One route: the stable name plus its swappable published snapshot.
  struct Slot {
    std::string name;
    ModelSnapshot current;
  };

  Slot* find_locked(const std::string& name) PULPHD_REQUIRES(mutex_);
  const Slot* find_locked(const std::string& name) const PULPHD_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<Slot> slots_ PULPHD_GUARDED_BY(mutex_);
  std::string default_name_ PULPHD_GUARDED_BY(mutex_);
};

}  // namespace pulphd::serve
