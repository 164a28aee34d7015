// A drained connection gives its peak buffers back: after one frame near
// the 16 MiB limit and then a small request, a ConnectionSession holds
// less than 1 MiB of heap, and a drained output buffer past the line limit
// is released while a small one keeps its capacity for the next response.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

// Every operator new in this test binary adds the block's usable size to
// the live count and every delete takes it off again.
namespace {
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

// Out of line, like the deletes below, so the compiler cannot pair an
// inlined malloc()/free() with the other side and report a mismatch that is
// not one.
[[gnu::noinline]] void* operator new(std::size_t size) {
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

}  // namespace
}  // namespace pulphd::serve
