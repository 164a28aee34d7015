// Steady-state trial and stream encoding allocate nothing but their
// results: after one warm-up call, the per-thread trial encoder and a
// session's StreamingEncoder reuse their chunk, ring and counter buffers.
// A session's counter memory stays within one ring of hop blocks, even at
// the largest stream shape the wire accepts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
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
    (void)clf.encode_query(trial);  // warm-up
    const Allocations a = allocations_of([&] { (void)clf.encode_query(trial); });
    EXPECT_EQ(a.count, 1u) << "n " << n;
    EXPECT_EQ(a.bytes, hypervector_bytes(clf.config())) << "n " << n;
  }
}

TEST(EncoderAllocations, SerialEncodeTrialsAllocatesOnlyTheResult) {
  Xoshiro256StarStar rng(0xa110c2);
  HdClassifier clf(config_with_ngram(3));
  clf.set_threads(1);
  std::vector<Trial> trials;
  for (int t = 0; t < 8; ++t) trials.push_back(random_trial(20, clf.config().channels, rng));
  (void)clf.encode_trials(trials);  // warm-up
  const Allocations a = allocations_of([&] { (void)clf.encode_trials(trials); });
  EXPECT_EQ(a.count, trials.size() + 1);
  EXPECT_EQ(a.bytes, trials.size() * (sizeof(Hypervector) + hypervector_bytes(clf.config())));
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
  session.push(stream, warmup);  // and the thread's spatial scratch
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
