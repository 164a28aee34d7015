// Streaming-vs-batch bit-exactness (PR 10 tentpole): a StreamingEncoder
// session fed sample-by-sample must emit, for every hop, exactly the query
// hypervector (and therefore exactly the predict_batch decision) of the
// equivalent buffered window slice — across backends, n-gram sizes, hops,
// channel parity, 1-vs-4 threads, stream lengths shorter/equal/longer than
// the window, and arbitrary push chunkings; plus the reset-reuse and
// mid-stream reconfigure lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/ops.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {
namespace {

Trial random_stream(std::size_t samples, std::size_t channels, Xoshiro256StarStar& rng) {
  Trial stream(samples, Sample(channels));
  for (auto& sample : stream) {
    for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
  }
  return stream;
}

/// The buffered reference: one Trial per window the stream completes —
/// window w is samples [w*hop, w*hop + window).
std::vector<Trial> window_slices(const Trial& stream, std::size_t window, std::size_t hop) {
  std::vector<Trial> slices;
  for (std::size_t start = 0; start + window <= stream.size(); start += hop) {
    slices.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(start),
                        stream.begin() + static_cast<std::ptrdiff_t>(start + window));
  }
  return slices;
}

/// Streams `stream` through a session in pushes of `chunk` samples and
/// returns every emitted window query.
std::vector<Hypervector> stream_queries(StreamingEncoder& session, const Trial& stream,
                                        std::size_t chunk) {
  std::vector<Hypervector> queries;
  std::span<const Sample> rest(stream);
  while (!rest.empty()) {
    const std::size_t take = std::min(chunk, rest.size());
    session.push(rest.subspan(0, take), queries);
    rest = rest.subspan(take);
  }
  return queries;
}

HdClassifier trained_classifier(ClassifierConfig cfg, std::uint64_t seed) {
  HdClassifier clf(cfg);
  Xoshiro256StarStar rng(seed);
  for (std::size_t label = 0; label < cfg.classes; ++label) {
    clf.train(random_stream(12, cfg.channels, rng), label);
  }
  return clf;
}

// The full matrix the satellite task asks for: every emitted window must be
// bit-identical (query hypervector AND classify decision) to predict_batch
// over the buffered slices, for backend x n x hop x channel parity x
// thread count x stream length, under every push chunking.
TEST(StreamingEncoder, WindowsBitIdenticalToPredictBatchAcrossTheSweep) {
  Xoshiro256StarStar rng(0x51e40001);
  for (const kernels::Backend* backend : kernels::compiled_backends()) {
    if (!backend->supported()) continue;
    const kernels::ScopedBackend forced(backend);
    for (const std::size_t channels : {3u, 4u}) {
      for (const std::size_t n : {1u, 3u, 5u}) {
        ClassifierConfig cfg;
        cfg.dim = 256;
        cfg.channels = channels;
        cfg.ngram = n;
        HdClassifier clf = trained_classifier(cfg, 0x51e4c0de + n);
        StreamingEncoder session = clf.make_streaming_encoder();
        const std::size_t window = std::max<std::size_t>(n, 8);
        for (const std::size_t hop : {1u, 3u, 8u, 11u}) {
          session.configure(window, hop);
          // Shorter than, exactly, and (much) longer than the window.
          for (const std::size_t samples : {window - 1, window, window + 1, 3 * window + 5}) {
            const Trial stream = random_stream(samples, channels, rng);
            const std::vector<Trial> slices = window_slices(stream, window, hop);
            for (const std::size_t threads : {1u, 4u}) {
              clf.set_threads(threads);
              for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                              std::size_t{7}, samples}) {
                session.reset();
                const std::vector<Hypervector> queries =
                    stream_queries(session, stream, chunk);
                ASSERT_EQ(queries.size(), slices.size())
                    << backend->name << " ch " << channels << " n " << n << " hop " << hop
                    << " samples " << samples << " chunk " << chunk;
                EXPECT_EQ(session.windows_emitted(), slices.size());
                EXPECT_EQ(session.samples_pushed(), samples);
                if (slices.empty()) continue;
                const std::vector<AmDecision> batch = clf.predict_batch(slices);
                const std::vector<AmDecision> streamed =
                    clf.predict_encoded_batch(queries);
                for (std::size_t w = 0; w < slices.size(); ++w) {
                  EXPECT_EQ(queries[w], clf.encode_query(slices[w]))
                      << backend->name << " ch " << channels << " n " << n << " hop "
                      << hop << " samples " << samples << " chunk " << chunk
                      << " window " << w;
                  EXPECT_EQ(streamed[w].label, batch[w].label);
                  EXPECT_EQ(streamed[w].distance, batch[w].distance);
                }
              }
            }
          }
        }
      }
    }
  }
}

// Hop larger than the window skips samples between decisions; those
// windows must still match their buffered slices.
TEST(StreamingEncoder, HopLargerThanWindowSkipsSamplesBitExactly) {
  Xoshiro256StarStar rng(0x51e40002);
  ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 4;
  cfg.ngram = 3;
  HdClassifier clf = trained_classifier(cfg, 0x51e4c0d3);
  StreamingEncoder session = clf.make_streaming_encoder();
  session.configure(/*window=*/6, /*hop=*/10);
  const Trial stream = random_stream(37, cfg.channels, rng);
  const std::vector<Trial> slices = window_slices(stream, 6, 10);
  std::vector<Hypervector> queries;
  session.push(stream, queries);
  ASSERT_EQ(queries.size(), slices.size());
  for (std::size_t w = 0; w < slices.size(); ++w) {
    EXPECT_EQ(queries[w], clf.encode_query(slices[w])) << "window " << w;
  }
}

// reset() starts a fresh recording on the same session: the second run must
// reproduce the first bit-for-bit with no leakage from the N-gram ring or
// the hop-block ring.
TEST(StreamingEncoder, ResetReusesTheSessionWithoutStateLeakage) {
  Xoshiro256StarStar rng(0x51e40003);
  ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 4;
  cfg.ngram = 3;
  const HdClassifier clf = trained_classifier(cfg, 0x51e4c0d4);
  StreamingEncoder session = clf.make_streaming_encoder();
  session.configure(/*window=*/8, /*hop=*/3);
  const Trial stream = random_stream(29, cfg.channels, rng);
  const std::vector<Hypervector> first = stream_queries(session, stream, 5);
  ASSERT_FALSE(first.empty());
  // Abandon a half-consumed unrelated stream, then reset mid-window.
  std::vector<Hypervector> sink;
  session.push(std::span<const Sample>(random_stream(13, cfg.channels, rng)), sink);
  session.reset();
  EXPECT_EQ(session.samples_pushed(), 0u);
  EXPECT_EQ(session.windows_emitted(), 0u);
  EXPECT_EQ(stream_queries(session, stream, 5), first);
}

// Mid-stream reconfigure reshapes the window/hop and restarts the stream
// position; the reshaped session must match a fresh encoder of that shape.
TEST(StreamingEncoder, MidStreamReconfigureMatchesAFreshSession) {
  Xoshiro256StarStar rng(0x51e40004);
  ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 3;
  cfg.ngram = 3;
  const HdClassifier clf = trained_classifier(cfg, 0x51e4c0d5);
  StreamingEncoder session = clf.make_streaming_encoder();
  session.configure(/*window=*/10, /*hop=*/2);
  std::vector<Hypervector> sink;
  session.push(std::span<const Sample>(random_stream(17, cfg.channels, rng)), sink);
  session.configure(/*window=*/5, /*hop=*/4);
  EXPECT_EQ(session.window(), 5u);
  EXPECT_EQ(session.hop(), 4u);
  EXPECT_EQ(session.samples_pushed(), 0u);
  const Trial stream = random_stream(23, cfg.channels, rng);
  StreamingEncoder fresh = clf.make_streaming_encoder();
  fresh.configure(5, 4);
  std::vector<Hypervector> expected;
  fresh.push(stream, expected);
  EXPECT_EQ(stream_queries(session, stream, 4), expected);
}

TEST(StreamingEncoder, LifecycleAndShapeValidation) {
  ClassifierConfig cfg;
  cfg.dim = 64;
  cfg.channels = 2;
  cfg.ngram = 3;
  const HdClassifier clf(cfg);
  StreamingEncoder session = clf.make_streaming_encoder();
  EXPECT_FALSE(session.configured());
  std::vector<Hypervector> out;
  const Trial stream(4, Sample(cfg.channels, 1.0f));
  EXPECT_THROW(session.push(stream, out), std::invalid_argument);
  EXPECT_THROW(session.configure(/*window=*/2, /*hop=*/1), std::invalid_argument);
  EXPECT_THROW(session.configure(/*window=*/4, /*hop=*/0), std::invalid_argument);
  session.configure(/*window=*/3, /*hop=*/1);
  EXPECT_TRUE(session.configured());
  EXPECT_EQ(session.push(stream, out), 2u);
  EXPECT_EQ(StreamingEncoder::active_windows(3, 1, 3), 1u);
  EXPECT_EQ(StreamingEncoder::active_windows(8, 3, 3), 2u);
  EXPECT_EQ(StreamingEncoder::active_windows(8, 1, 1), 8u);
}

}  // namespace
}  // namespace pulphd::hd
