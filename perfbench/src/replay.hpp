// The traced run's in-process replay: the workload's wire bytes go through
// the same public library calls the daemon makes for them, each wrapped in
// a span recorded by the benchmark (not by the program under test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client.hpp"
#include "serve/registry.hpp"
#include "workload.hpp"

namespace perfbench {

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the tracer, or -1 for a root.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder; a disabled tracer records nothing and reads no
/// clock, which is the untraced side of the overhead measurement.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t request);
  void end(std::int64_t span);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Appends every span to `path` as one JSON object a line, numbering
  /// spans (and parents) from `first_id` so several tracers share a file.
  void write_jsonl(const std::string& path, std::size_t first_id) const;

 private:
  double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent, std::uint64_t request)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Replays one pass of every script of `w` in process against models
/// loaded into `registry`: decode (ConnectionSession::consume), encode
/// (HdClassifier::encode_trials or StreamingEncoder::push) with a child
/// span re-running SpatialEncoder::encode_batch on the same samples, AM
/// search (predict_encoded_batch) and respond (ResponseEncoder). Throws
/// when a response differs from the oracle. Root spans are named
/// "request" for decision-carrying requests and "control" otherwise.
void replay(const Workload& w, const pulphd::serve::ModelRegistry& registry, Tracer& tracer);

/// Per-request figures derived from a traced replay.
struct LayerTimes {
  std::map<std::string, double> mean_us;  ///< per span name, over "request" trees
  std::map<std::string, double> self_us;  ///< span duration minus its children's
  double inproc_p50_us = 0.0;  ///< p50 of decode + encode + AM + respond per request
  std::size_t requests = 0;
};

LayerTimes layer_times(const Tracer& tracer);

}  // namespace perfbench
