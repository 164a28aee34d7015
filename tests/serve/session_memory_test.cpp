// A drained connection gives its peak buffers back: after one frame near
// the 16 MiB limit and then a small request, a ConnectionSession holds
// less than 1 MiB of heap, also when the big request's sample storage was
// handed back for reuse, and a drained output buffer past the line limit
// is released while a small one keeps its capacity for the next response.
// Reuse is what makes a warm request free: once a request of the same
// shape has been handed back, feeding and decoding the next one and handing
// it back allocates nothing, on either wire.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "serve/protocol.hpp"

// Every operator new in this test binary adds the block's usable size to
// the live count and every delete takes it off again; while a test has
// counting on, it also counts the allocation.
namespace {
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, like the deletes below, so the compiler cannot pair an
// inlined malloc()/free() with the other side and report a mismatch that is
// not one.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace pulphd::serve {
namespace {

constexpr std::int64_t kOneMiB = std::int64_t{1} << 20;

// One trial of kMaxSamplesPerTrial samples of 63 channels: a 15.75 MiB
// phd2 classify frame, under the 16 MiB frame limit.
std::string big_classify_frame() {
  const hd::Trial trial(kMaxSamplesPerTrial, hd::Sample(63, 1.5f));
  return format_binary_classify_request("m", std::vector<hd::Trial>{trial});
}

TEST(SessionMemory, DrainedSessionGivesABigFrameBack) {
  const std::string big = big_classify_frame();
  ASSERT_GT(big.size(), std::size_t{15} << 20);
  ASSERT_LE(big.size() - 4, kMaxFrameBytes);
  const std::string ping = format_binary_command(kFramePing);
  const std::int64_t before = g_live_bytes.load();
  {
    ConnectionSession session;
    EXPECT_TRUE(session.consume(kBinaryMagic).empty());
    {
      const std::vector<WireEvent> events = session.consume(big);
      ASSERT_EQ(events.size(), 1u);
      EXPECT_TRUE(events[0].request.has_value());
    }
    EXPECT_EQ(session.consume(ping).size(), 1u);
    EXPECT_LT(g_live_bytes.load() - before, kOneMiB);
  }
}

// The big request's rows are handed back before the next request: the
// session keeps at most kMaxLineBytes of them, so it still ends under
// 1 MiB, and the small request that follows decodes into what it kept.
TEST(SessionMemory, RecycledBigFrameKeepsTheSessionUnderOneMiB) {
  const std::string big = big_classify_frame();
  const std::vector<hd::Trial> small_trials = {hd::Trial(5, hd::Sample(4, 2.5f))};
  const std::string small = format_binary_classify_request("m", small_trials);
  const std::int64_t before = g_live_bytes.load();
  {
    ConnectionSession session;
    EXPECT_TRUE(session.consume(kBinaryMagic).empty());
    {
      std::vector<WireEvent> events = session.consume(big);
      ASSERT_EQ(events.size(), 1u);
      ASSERT_TRUE(events[0].request.has_value());
      session.recycle(std::move(*events[0].request));
    }
    std::vector<WireEvent> events = session.consume(small);
    ASSERT_EQ(events.size(), 1u);
    ASSERT_TRUE(events[0].request.has_value());
    EXPECT_EQ(std::get<ClassifyRequest>(*events[0].request).trials, small_trials);
    session.recycle(std::move(*events[0].request));
    events = {};
    EXPECT_LT(g_live_bytes.load() - before, kOneMiB);
  }
}

TEST(SessionMemory, ClearDrainedReleasesOnlyPastTheLineLimit) {
  std::string small(1000, 'x');
  const std::size_t small_capacity = small.capacity();
  clear_drained(small);
  EXPECT_TRUE(small.empty());
  EXPECT_EQ(small.capacity(), small_capacity);

  std::string big(kMaxLineBytes + 1, 'x');
  clear_drained(big);
  EXPECT_TRUE(big.empty());
  EXPECT_LT(big.capacity(), kMaxLineBytes);
}

template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  g_allocations = 0;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return g_allocations.load();
}

/// `samples` rows of `channels` distinct values per trial.
std::vector<hd::Trial> trials_of_shape(std::size_t trials, std::size_t samples,
                                       std::size_t channels) {
  std::vector<hd::Trial> out(trials, hd::Trial(samples, hd::Sample(channels)));
  float value = 0.0f;
  for (hd::Trial& trial : out) {
    for (hd::Sample& sample : trial) {
      for (float& v : sample) v = (value += 0.25f);
    }
  }
  return out;
}

/// The sample rows a decoded request carries, as trials.
std::vector<hd::Trial> decoded_trials(const Request& request) {
  if (const auto* push = std::get_if<StreamPushRequest>(&request)) return {push->samples};
  return std::get<ClassifyRequest>(request).trials;
}

/// Serves `wire` (one whole request) twice on one session the way a shard
/// does: feed the bytes, decode the request, then hand it back. Returns the
/// allocations of the second, warm round.
std::size_t warm_round_allocations(ConnectionSession& session, const std::string& wire,
                                   const std::vector<hd::Trial>& expected) {
  std::size_t warm = 0;
  for (int round = 0; round < 2; ++round) {
    std::optional<WireEvent> event;
    const std::size_t decode = allocations_of([&] {
      session.feed(wire);
      event = session.next();
    });
    EXPECT_TRUE(event.has_value() && event->request.has_value());
    if (!event.has_value() || !event->request.has_value()) return decode;
    EXPECT_EQ(decoded_trials(*event->request), expected) << "round " << round;
    EXPECT_FALSE(session.next().has_value());
    const std::size_t recycle =
        allocations_of([&] { session.recycle(std::move(*event->request)); });
    warm = decode + recycle;
  }
  return warm;
}

// perfbench's bulk shape, 32 trials x 20 samples x 32 channels; "bulk" is
// short enough for std::string to hold inline.
TEST(SessionAllocations, WarmBinaryBulkClassifyAllocatesNothing) {
  const std::vector<hd::Trial> trials = trials_of_shape(32, 20, 32);
  ConnectionSession session;
  session.consume(kBinaryMagic);
  const std::string wire = format_binary_classify_request("bulk", trials);
  EXPECT_EQ(warm_round_allocations(session, wire, trials), 0u);
}

// The paper's operating point streamed as 10 ms hops: 5 samples x 4 channels.
TEST(SessionAllocations, WarmBinaryPaperStreamPushAllocatesNothing) {
  const hd::Trial samples = trials_of_shape(1, 5, 4)[0];
  ConnectionSession session;
  session.consume(kBinaryMagic);
  const std::string wire = format_binary_stream_push_request(samples);
  EXPECT_EQ(warm_round_allocations(session, wire, {samples}), 0u);
}

TEST(SessionAllocations, WarmTextBulkClassifyAllocatesNothing) {
  const std::vector<hd::Trial> trials = trials_of_shape(32, 20, 32);
  ConnectionSession session;
  const std::string wire = format_classify_request("bulk", trials);
  EXPECT_EQ(warm_round_allocations(session, wire, trials), 0u);
}

}  // namespace
}  // namespace pulphd::serve
