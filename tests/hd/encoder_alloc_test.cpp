// Steady-state trial and stream encoding allocate nothing but their
// results: after one warm-up call, a caller-owned StreamingEncoder reuses
// its spatial scratch and its chunk, gram, window and counter buffers, and
// a push that hands its windows to the caller, a classification into a
// warm decision and a response appended into a buffer with capacity
// allocate nothing at all. An offline batch encode builds one encoder per
// call, so its cost per trial is still exactly the trial's query.
// A session's counter memory stays within one ring of hop blocks, even at
// the largest stream shape the wire accepts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "serve/protocol.hpp"

// Every operator new in this test binary is counted while a test has
// counting on.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

// Out of line, like the deletes below, so the compiler cannot pair an
// inlined malloc()/free() with the other side and report a mismatch that is
// not one.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations) {
    ++g_allocations;
    g_allocated_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pulphd::hd {
namespace {

struct Allocations {
  std::size_t count = 0;
  std::size_t bytes = 0;
};

template <typename Fn>
Allocations allocations_of(Fn&& fn) {
  g_allocations = 0;
  g_allocated_bytes = 0;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return {g_allocations.load(), g_allocated_bytes.load()};
}

Trial random_trial(std::size_t samples, std::size_t channels, Xoshiro256StarStar& rng) {
  Trial trial(samples, Sample(channels));
  for (auto& sample : trial) {
    for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
  }
  return trial;
}

ClassifierConfig config_with_ngram(std::size_t n) {
  ClassifierConfig cfg;  // the paper's D = 10,000, 4 channels
  cfg.ngram = n;
  return cfg;
}

std::size_t hypervector_bytes(const ClassifierConfig& cfg) {
  return words_for_dim(cfg.dim) * sizeof(Word);
}

TEST(EncoderAllocations, EncodeQueryAllocatesOnlyTheQueryWords) {
  Xoshiro256StarStar rng(0xa110c1);
  for (const std::size_t n : {1u, 3u}) {
    const HdClassifier clf(config_with_ngram(n));
    const Trial trial = random_trial(20, clf.config().channels, rng);
    StreamingEncoder encoder = clf.make_streaming_encoder();
    (void)clf.encode_query(trial, encoder);  // warm-up
    const Allocations a =
        allocations_of([&] { const Hypervector query = clf.encode_query(trial, encoder); });
    EXPECT_EQ(a.count, 1u) << "n " << n;
    EXPECT_EQ(a.bytes, hypervector_bytes(clf.config())) << "n " << n;
  }
}

// The call's own encoder costs the same for 8 trials as for 16, so the
// difference is exactly 8 more queries in the result.
TEST(EncoderAllocations, SerialEncodeTrialsAllocatesOnlyTheResult) {
  Xoshiro256StarStar rng(0xa110c2);
  HdClassifier clf(config_with_ngram(3));
  clf.set_threads(1);
  std::vector<Trial> trials;
  for (int t = 0; t < 16; ++t) trials.push_back(random_trial(20, clf.config().channels, rng));
  const std::span<const Trial> first8 = std::span<const Trial>(trials).first(8);
  const Allocations a8 = allocations_of([&] { (void)clf.encode_trials(first8); });
  const Allocations a16 = allocations_of([&] { (void)clf.encode_trials(trials); });
  EXPECT_EQ(a16.count - a8.count, 8u);
  EXPECT_EQ(a16.bytes - a8.bytes, 8 * (sizeof(Hypervector) + hypervector_bytes(clf.config())));
}

TEST(EncoderAllocations, WarmSessionPushAllocatesOnlyTheEmittedQueries) {
  Xoshiro256StarStar rng(0xa110c3);
  for (const std::size_t n : {1u, 3u}) {
    const HdClassifier clf(config_with_ngram(n));
    StreamingEncoder session = clf.make_streaming_encoder();
    session.configure(/*window=*/20, /*hop=*/5);
    const Trial stream = random_trial(150, clf.config().channels, rng);
    std::vector<Hypervector> queries;
    session.push(stream, queries);  // warm-up
    const std::size_t emitted = queries.size();
    ASSERT_GT(emitted, 0u);
    session.reset();
    queries.clear();
    const Allocations a = allocations_of([&] { session.push(stream, queries); });
    EXPECT_EQ(queries.size(), emitted);
    EXPECT_EQ(a.count, emitted) << "n " << n;
    EXPECT_EQ(a.bytes, emitted * hypervector_bytes(clf.config())) << "n " << n;
  }
}

// A paper-point session (n = 1, window 20, hop 5) allocates its block ring
// (4 hop blocks of 3 planes), its spatial chunk buffer (64 rows, one
// allocation) and its window buffer (one slot vector and (64 - 1) / 5 + 1 =
// 13 hypervectors), and nothing else: no spatial scratch, and no N-gram
// ring or gram buffer at n = 1.
TEST(EncoderAllocations, PaperPointSessionAllocatesOnlyItsRingAndChunkBuffers) {
  const HdClassifier clf(config_with_ngram(1));
  const std::size_t words = words_for_dim(clf.config().dim);
  const std::size_t ring_bytes = 4 * 3 * words * sizeof(Word);
  const std::size_t chunk_bytes = StreamingEncoder::kChunkSamples * words * sizeof(Word);
  constexpr std::size_t kWindows = 13;
  const std::size_t window_bytes =
      kWindows * (sizeof(Hypervector) + hypervector_bytes(clf.config()));
  const Allocations a = allocations_of([&] {
    StreamingEncoder session = clf.make_streaming_encoder();
    session.configure(/*window=*/20, /*hop=*/5);
  });
  EXPECT_EQ(a.count, 1 + 1 + 1 + kWindows);
  EXPECT_EQ(a.bytes, ring_bytes + chunk_bytes + window_bytes);
}

// The daemon's push: each window's query is handed to the caller in the
// encoder's own storage, so a warm push allocates nothing at all.
TEST(EncoderAllocations, WarmWindowToCallerPushAllocatesNothing) {
  Xoshiro256StarStar rng(0xa110c5);
  for (const std::size_t n : {1u, 3u}) {
    const HdClassifier clf(config_with_ngram(n));
    StreamingEncoder session = clf.make_streaming_encoder();
    session.configure(/*window=*/20, /*hop=*/5);
    const Trial stream = random_trial(150, clf.config().channels, rng);
    Word sink = 0;
    const auto on_window = [&sink](const Hypervector& query) { sink ^= query.words()[0]; };
    const std::size_t emitted = session.push(stream, on_window);  // warm-up
    ASSERT_GT(emitted, 0u);
    session.reset();
    std::size_t pushed = 0;
    const Allocations a = allocations_of([&] { pushed = session.push(stream, on_window); });
    EXPECT_EQ(pushed, emitted) << "n " << n;
    EXPECT_EQ(a.count, 0u) << "n " << n;
  }
}

// A hop-1 push of the longest trial the wire accepts completes a window
// per sample, 64 per spatial chunk, through the same chunk-sized buffers.
TEST(EncoderAllocations, WarmHopOnePushOfTheLongestTrialAllocatesNothing) {
  Xoshiro256StarStar rng(0xa110c6);
  const Trial stream = random_trial(serve::kMaxSamplesPerTrial, 4, rng);
  for (const std::size_t n : {1u, 3u}) {
    const HdClassifier clf(config_with_ngram(n));
    StreamingEncoder session = clf.make_streaming_encoder();
    session.configure(/*window=*/8, /*hop=*/1);
    std::size_t windows = 0;
    const auto on_window = [&windows](const Hypervector&) { ++windows; };
    session.push(std::span(stream).first(100), on_window);  // warm-up
    session.reset();
    windows = 0;
    const Allocations a = allocations_of([&] { session.push(stream, on_window); });
    EXPECT_EQ(windows, stream.size() - 8 + 1) << "n " << n;
    EXPECT_EQ(a.count, 0u) << "n " << n;
  }
}

TEST(EncoderAllocations, ClassifyIntoAWarmDecisionAllocatesNothing) {
  Xoshiro256StarStar rng(0xa110c7);
  HdClassifier clf(config_with_ngram(1));
  for (std::size_t label = 0; label < clf.config().classes; ++label) {
    clf.train(random_trial(20, clf.config().channels, rng), label);
  }
  const Hypervector query = clf.encode_query(random_trial(20, clf.config().channels, rng));
  AmDecision decision;
  clf.am().classify(query, decision);  // warm-up: sizes the distance row
  const AmDecision expected = clf.am().classify(query);
  decision.label = 99;
  const Allocations a = allocations_of([&] { clf.am().classify(query, decision); });
  EXPECT_EQ(a.count, 0u);
  EXPECT_EQ(decision.label, expected.label);
  EXPECT_EQ(decision.distances, expected.distances);
}

// The response rows the daemon writes into a connection's output buffer:
// once the buffer has the capacity, appending allocates nothing, on
// either wire.
TEST(EncoderAllocations, AppendingResponsesIntoCapacityAllocatesNothing) {
  AmDecision decision;
  decision.label = 3;
  decision.distance = 4242;
  decision.distances = {5000, 4990, 5012, 4242, 4999};
  const std::vector<AmDecision> decisions(4, decision);
  for (const serve::Wire wire : {serve::Wire::kText, serve::Wire::kBinary}) {
    const serve::ResponseEncoder encoder(wire);
    std::string out;
    out.reserve(4096);
    const Allocations a = allocations_of([&] {
      std::uint64_t index = 1234567;
      const std::size_t start = encoder.open_stream_windows(out, index, decisions.size());
      for (const AmDecision& d : decisions) encoder.append_window(out, index++, d);
      encoder.close(out, start);
      encoder.append_classify(out, "s0", decisions);
      encoder.append_stream_windows(out, 7, decisions);
    });
    EXPECT_EQ(a.count, 0u) << (wire == serve::Wire::kText ? "text" : "binary");
  }
}

// window 65,536 (kMaxSamplesPerTrial), hop 256, n = 2: 256 active windows
// (the kMaxStreamActiveWindows cap) of 65,535 grams, and the hop splits at
// r = 65,535 % 256 = 255. The budget is active windows x the planes that
// count one window x words; a ring of 256 nine-plane blocks fits it, while
// a grid of gcd(65,535, 256) = 1-gram blocks (65,535 of them) would not.
TEST(EncoderAllocations, LargestSplitStreamShapeStaysWithinTheRingBudget) {
  constexpr std::size_t kWindow = serve::kMaxSamplesPerTrial;
  constexpr std::size_t kHop = 256;
  const HdClassifier clf(config_with_ngram(2));
  Xoshiro256StarStar rng(0xa110c4);
  const Trial stream = random_trial(600, clf.config().channels, rng);
  StreamingEncoder session = clf.make_streaming_encoder();
  session.configure(20, 5);  // allocates the spatial chunk buffer
  std::vector<Hypervector> warmup;
  session.push(stream, warmup);
  const std::size_t active = StreamingEncoder::active_windows(kWindow, kHop, 2);
  ASSERT_EQ(active, serve::kMaxStreamActiveWindows);
  const std::size_t grams = kWindow - 1;
  ASSERT_NE(grams % kHop, 0u);
  const Allocations a = allocations_of([&] { session.configure(kWindow, kHop); });
  const std::size_t budget =
      active * std::bit_width(grams) * words_for_dim(clf.config().dim) * sizeof(Word);
  EXPECT_LE(a.bytes, budget);
  // The ring is provisioned up front: a push that completes no window
  // allocates nothing.
  std::vector<Hypervector> queries;
  const Allocations push = allocations_of([&] { session.push(stream, queries); });
  EXPECT_EQ(push.count, 0u);
  EXPECT_TRUE(queries.empty());
}

}  // namespace
}  // namespace pulphd::hd
