#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <variant>

#include "stats.hpp"

namespace perfbench {
namespace {

using namespace pulphd;

/// Re-runs the spatial stage alone on `samples`, into reused scratch rows.
void spatial_rerun(const hd::HdClassifier& clf, std::span<const hd::Sample> samples,
                   std::vector<hd::Hypervector>& scratch) {
  const std::size_t dim = clf.config().dim;
  if (scratch.size() < samples.size() || (!scratch.empty() && scratch[0].dim() != dim)) {
    scratch.assign(std::max(samples.size(), scratch.size()), hd::Hypervector(dim));
  }
  clf.spatial_encoder().encode_batch(samples, std::span(scratch).first(samples.size()));
}

}  // namespace

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, now_us(), 0.0, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_us = now_us();
}

void Tracer::write_jsonl(const std::string& path, std::size_t first_id) const {
  std::ofstream out(path, std::ios::app);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent = s.parent < 0 ? -1 : static_cast<long long>(first_id) + s.parent;
    std::snprintf(line, sizeof(line),
                  "{\"span\": %zu, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"parent\": %lld, \"request\": %llu}\n",
                  first_id + i, s.name, s.start_us, s.end_us, parent,
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

void replay(const Workload& w, const serve::ModelRegistry& registry, Tracer& tracer) {
  std::uint64_t request_id = 0;
  std::vector<hd::Hypervector> scratch;
  for (const Script& script : w.scripts) {
    serve::ConnectionSession session;
    session.consume(script.preamble);
    const serve::ResponseEncoder encoder = session.encoder();
    serve::ModelSnapshot stream_model;
    std::optional<hd::StreamingEncoder> stream;
    std::uint64_t windows = 0;

    for (const WireRequest& wire : script.requests) {
      const std::uint64_t id = request_id++;
      const ScopedSpan root(tracer, wire.decisions > 0 ? "request" : "control", -1, id);
      std::vector<serve::WireEvent> events;
      {
        const ScopedSpan span(tracer, "protocol.decode", root.id(), id);
        events = session.consume(wire.bytes);
      }
      if (events.size() != 1 || !events[0].request) {
        throw std::runtime_error("replay: request did not decode to exactly one request");
      }
      const serve::Request& request = *events[0].request;
      std::string response;
      if (const auto* classify = std::get_if<serve::ClassifyRequest>(&request)) {
        const serve::ModelSnapshot model = registry.resolve(classify->model);
        const hd::HdClassifier& clf = model->classifier;
        std::vector<hd::Hypervector> queries;
        std::int64_t encode_span = -1;
        {
          const ScopedSpan encode(tracer, "encoder.encode", root.id(), id);
          encode_span = encode.id();
          queries = clf.encode_trials(classify->trials);
        }
        {
          const ScopedSpan spatial(tracer, "encoder.spatial", encode_span, id);
          for (const hd::Trial& trial : classify->trials) spatial_rerun(clf, trial, scratch);
        }
        std::vector<hd::AmDecision> decisions;
        {
          const ScopedSpan span(tracer, "am.search", root.id(), id);
          decisions = clf.predict_encoded_batch(queries);
        }
        const ScopedSpan span(tracer, "protocol.respond", root.id(), id);
        response = encoder.classify(model->name, decisions);
      } else if (const auto* push = std::get_if<serve::StreamPushRequest>(&request)) {
        if (!stream) throw std::runtime_error("replay: stream push without an open session");
        const hd::HdClassifier& clf = stream_model->classifier;
        std::vector<hd::Hypervector> queries;
        std::int64_t encode_span = -1;
        {
          const ScopedSpan encode(tracer, "encoder.encode", root.id(), id);
          encode_span = encode.id();
          stream->push(push->samples, queries);
        }
        {
          const ScopedSpan spatial(tracer, "encoder.spatial", encode_span, id);
          spatial_rerun(clf, push->samples, scratch);
        }
        std::vector<hd::AmDecision> decisions;
        {
          const ScopedSpan span(tracer, "am.search", root.id(), id);
          decisions = clf.predict_encoded_batch(queries);
        }
        const ScopedSpan span(tracer, "protocol.respond", root.id(), id);
        response = encoder.stream_windows(windows, decisions);
        windows += decisions.size();
      } else if (const auto* open = std::get_if<serve::StreamOpenRequest>(&request)) {
        stream_model = registry.resolve(open->model);
        stream.emplace(stream_model->classifier.make_streaming_encoder());
        stream->configure(open->window, open->hop);
        windows = 0;
        response = encoder.stream_opened(stream_model->name, open->window, open->hop);
      } else if (std::holds_alternative<serve::StreamCloseRequest>(request)) {
        response = encoder.stream_closed(windows);
        stream.reset();
        stream_model.reset();
      } else {
        throw std::runtime_error("replay: unexpected request kind");
      }
      if (response != wire.expected) {
        throw std::runtime_error("replay: in-process response differs from the oracle");
      }
    }
  }
}

LayerTimes layer_times(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  const std::size_t n = spans.size();
  std::vector<double> duration(n);
  std::vector<double> children(n, 0.0);
  std::vector<std::size_t> root(n);
  for (std::size_t i = 0; i < n; ++i) {
    duration[i] = spans[i].end_us - spans[i].start_us;
    if (spans[i].parent < 0) {
      root[i] = i;
    } else {
      const auto parent = static_cast<std::size_t>(spans[i].parent);
      children[parent] += duration[i];
      root[i] = root[parent];
    }
  }
  LayerTimes out;
  std::vector<double> inproc;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::string_view(spans[root[i]].name) != "request") continue;
    if (spans[i].parent < 0) {
      ++out.requests;
      inproc.push_back(children[i]);
      continue;
    }
    out.mean_us[spans[i].name] += duration[i];
    out.self_us[spans[i].name] += std::max(0.0, duration[i] - children[i]);
  }
  if (out.requests == 0) throw std::runtime_error("trace holds no request spans");
  for (auto* sums : {&out.mean_us, &out.self_us}) {
    for (auto& [name, total] : *sums) total /= static_cast<double>(out.requests);
  }
  out.inproc_p50_us = median(inproc);
  return out;
}

}  // namespace perfbench
