// Bit-exact equivalence of every compiled kernel backend against the
// portable SWAR reference, across dimensions that exercise every tail shape
// (sub-word, exact-word, word+1, the paper's 313-word rows and the 10,048-D
// bench config), empty/1/3/129-row batches and 1-vs-N thread counts; plus
// the dispatch contract: PULPHD_BACKEND is honored, unknown values fail
// with a clear error.
#include "kernels/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hd/associative_memory.hpp"
#include "hd/encoder.hpp"
#include "hd/ops.hpp"
#include "tests/support/encode_oracle.hpp"

namespace pulphd::kernels {
namespace {

// Every tail shape the word loops can see: dims 63/64/65 straddle the
// 64-bit SWAR chunk, 255/256/257 straddle the 256-bit AVX2 vector, 10016
// (= 313 * 32) is the paper's row, 10048 the bench config.
const std::size_t kDims[] = {1, 31, 63, 64, 65, 255, 256, 257, 10016, 10048};

std::vector<Word> random_row(std::size_t dim, Xoshiro256StarStar& rng) {
  std::vector<Word> row(words_for_dim(dim));
  for (auto& w : row) w = static_cast<Word>(rng.next() & 0xffffffffu);
  const unsigned used = static_cast<unsigned>(dim % kWordBits);
  if (used != 0) row.back() &= low_bits_mask(used);  // the padding invariant
  return row;
}

// Restores both the cached backend selection and any PULPHD_BACKEND value
// the test binary was launched with (the CI forced-portable job sets it for
// the whole suite).
class BackendGuard {
 public:
  BackendGuard() : previous_(&active_backend()) {
    if (const char* env = std::getenv("PULPHD_BACKEND")) saved_env_ = env;
  }
  ~BackendGuard() {
    if (saved_env_.has_value()) {
      setenv("PULPHD_BACKEND", saved_env_->c_str(), 1);
    } else {
      unsetenv("PULPHD_BACKEND");
    }
    force_backend(previous_);
  }

 private:
  const Backend* previous_;
  std::optional<std::string> saved_env_;
};

TEST(BackendRegistry, PortableIsAlwaysCompiledAndFirst) {
  const auto backends = compiled_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), &portable_backend());
  EXPECT_STREQ(portable_backend().name, "portable");
  EXPECT_TRUE(portable_backend().supported());
}

TEST(BackendRegistry, FindBackendRoundTrips) {
  for (const Backend* b : compiled_backends()) {
    EXPECT_EQ(find_backend(b->name), b);
  }
  EXPECT_EQ(find_backend("not-a-backend"), nullptr);
}

TEST(BackendRegistry, ActiveBackendIsSupported) {
  EXPECT_TRUE(active_backend().supported());
}

TEST(BackendDispatch, ResolveUnknownNameFailsWithClearError) {
  try {
    resolve_backend_choice("sse9");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown backend 'sse9'"), std::string::npos) << message;
    EXPECT_NE(message.find("valid values: portable, avx2;"), std::string::npos) << message;
  }
}

TEST(BackendDispatch, ResolvePortableSucceeds) {
  EXPECT_EQ(&resolve_backend_choice("portable"), &portable_backend());
}

TEST(BackendDispatch, EnvOverridePortableIsHonored) {
  BackendGuard guard;
  ASSERT_EQ(setenv("PULPHD_BACKEND", "portable", 1), 0);
  force_backend(nullptr);  // drop the cached selection; next call re-reads env
  EXPECT_STREQ(active_backend().name, "portable");
}

TEST(BackendDispatch, EnvUnknownValueThrows) {
  BackendGuard guard;
  ASSERT_EQ(setenv("PULPHD_BACKEND", "quantum", 1), 0);
  force_backend(nullptr);
  EXPECT_THROW(active_backend(), std::runtime_error);
  ASSERT_EQ(unsetenv("PULPHD_BACKEND"), 0);
  force_backend(nullptr);
  EXPECT_TRUE(active_backend().supported());  // recovers once the env is sane
}

TEST(BackendEquivalence, HammingWordsMatchesPortableOnAllTailShapes) {
  Xoshiro256StarStar rng(0xb001);
  for (const std::size_t dim : kDims) {
    const std::vector<Word> a = random_row(dim, rng);
    const std::vector<Word> b = random_row(dim, rng);
    const std::uint64_t ref =
        portable_backend().hamming_words(a.data(), b.data(), a.size());
    for (const Backend* backend : compiled_backends()) {
      if (!backend->supported()) continue;
      EXPECT_EQ(backend->hamming_words(a.data(), b.data(), a.size()), ref)
          << backend->name << " dim " << dim;
    }
  }
}

// Row counts 1 to 40, 64, 65, 100, 129 and 257: both parities on either
// side of every counter plane count from 1 to 9.
std::vector<std::size_t> majority_row_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t r = 1; r <= 40; ++r) counts.push_back(r);
  for (const std::size_t r : {64, 65, 100, 129, 257}) counts.push_back(r);
  return counts;
}

std::vector<const Word*> row_pointers(const std::vector<std::vector<Word>>& storage) {
  std::vector<const Word*> rows;
  for (const auto& row : storage) rows.push_back(row.data());
  return rows;
}

TEST(BackendEquivalence, MajorityWordsMatchesColumnCountOracle) {
  // Reference from first principles, not from another kernel: count the
  // set bits of each column, plus the bit of row 0 XOR row 1 for an even
  // row count (§5.1's tie row), and compare with half the row count. Dims
  // 8 and 10,000 end in an odd word, which the shared 32-bit scalar body
  // takes; 256 does not.
  Xoshiro256StarStar rng(0xb004);
  for (const std::size_t dim : {std::size_t{8}, std::size_t{256}, std::size_t{10000}}) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : majority_row_counts()) {
      std::vector<std::vector<Word>> storage;
      for (std::size_t r = 0; r < num_rows; ++r) storage.push_back(random_row(dim, rng));
      const std::vector<const Word*> rows = row_pointers(storage);
      std::vector<Word> expected(words, 0);
      for (std::size_t b = 0; b < words * kWordBits; ++b) {
        const auto bit = [&](std::size_t r) {
          return (rows[r][b / kWordBits] >> (b % kWordBits)) & 1u;
        };
        std::size_t count = 0;
        for (std::size_t r = 0; r < num_rows; ++r) count += bit(r);
        if (num_rows % 2 == 0) count += bit(0) ^ bit(1);
        if (count > num_rows / 2) expected[b / kWordBits] |= Word{1} << (b % kWordBits);
      }
      std::vector<Word> out(words, 0xdeadbeefu);
      majority_words(rows.data(), num_rows, out.data(), words);
      ASSERT_EQ(out, expected) << "dim " << dim << " rows " << num_rows;
    }
  }
}

// The compared fields of one AM decision: label, distance and the full row.
using DecisionFields = std::tuple<std::size_t, std::size_t, std::vector<std::size_t>>;

std::vector<DecisionFields> decision_fields(const std::vector<hd::AmDecision>& decisions) {
  std::vector<DecisionFields> out;
  for (const hd::AmDecision& d : decisions) out.emplace_back(d.label, d.distance, d.distances);
  return out;
}

TEST(BackendEquivalence, AmClassifyBatchMatchesPortable) {
  BackendGuard guard;
  Xoshiro256StarStar rng(0xb004);
  const std::size_t kBatches[] = {0, 1, 3, 129};
  const std::size_t classes = 5;
  for (const std::size_t dim : {65u, 10016u, 10048u}) {
    hd::AssociativeMemory am(classes, dim, 7);
    std::vector<hd::Hypervector> prototypes;
    for (std::size_t c = 0; c < classes; ++c) {
      prototypes.push_back(hd::Hypervector::random(dim, rng));
    }
    am.load_prototypes(std::move(prototypes));
    for (const std::size_t batch : kBatches) {
      std::vector<hd::Hypervector> queries;
      for (std::size_t q = 0; q < batch; ++q) {
        queries.push_back(hd::Hypervector::random(dim, rng));
      }
      force_backend(&portable_backend());
      const std::vector<DecisionFields> ref = decision_fields(am.classify_batch(queries));
      ASSERT_EQ(ref.size(), batch);
      for (const Backend* backend : compiled_backends()) {
        if (!backend->supported()) continue;
        force_backend(backend);
        EXPECT_EQ(decision_fields(am.classify_batch(queries)), ref)
            << backend->name << " dim " << dim << " batch " << batch;
      }
    }
  }
}

// Slow-but-obvious per-component reference for the counter kernels: count
// the set bits column-wise.
std::vector<std::uint32_t> column_counts(const std::vector<std::vector<Word>>& rows,
                                         std::size_t dim) {
  std::vector<std::uint32_t> counts(dim, 0);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < dim; ++i) {
      counts[i] += extract_bit(row[i / kWordBits], static_cast<unsigned>(i % kWordBits));
    }
  }
  return counts;
}

std::vector<Word> planes_to_words(const std::vector<std::uint32_t>& counts,
                                  unsigned num_planes, std::size_t words) {
  std::vector<Word> planes(num_planes * words, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (unsigned p = 0; p < num_planes; ++p) {
      if ((counts[i] >> p) & 1u) {
        planes[p * words + i / kWordBits] |= Word{1} << (i % kWordBits);
      }
    }
  }
  return planes;
}

unsigned planes_for(std::size_t max_count) {
  unsigned planes = 1;
  while ((std::size_t{1} << planes) <= max_count) ++planes;
  return planes;
}

// Row counts up to 300 need 9 planes and run the AVX2 kernel in groups of
// its unrolled counts. The rows arrive in calls of 1, 2, 3, ... rows, the
// first counted from zero onto a dirty counter and the rest accumulated,
// as a hop block split across chunks is.
TEST(BackendEquivalence, AccumulateCountersMatchesBitSerialReference) {
  Xoshiro256StarStar rng(0xb005);
  const std::size_t kRowCounts[] = {1, 2, 5, 9, 20, 300};
  for (const std::size_t dim : kDims) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : kRowCounts) {
      const unsigned num_planes = planes_for(num_rows);
      std::vector<std::vector<Word>> rows;
      std::vector<const Word*> row_words;
      for (std::size_t r = 0; r < num_rows; ++r) {
        rows.push_back(random_row(dim, rng));
        row_words.push_back(rows.back().data());
      }
      const std::vector<Word> expected =
          planes_to_words(column_counts(rows, dim), num_planes, words);
      for (const Backend* backend : compiled_backends()) {
        if (!backend->supported()) continue;
        std::vector<Word> planes(num_planes * words, 0xdeadbeefu);
        std::size_t call = 1;
        for (std::size_t first = 0; first < num_rows; first += call, ++call) {
          backend->count_rows(row_words.data() + first, std::min(call, num_rows - first),
                              planes.data(), num_planes, first > 0, words);
        }
        EXPECT_EQ(planes, expected)
            << backend->name << " dim " << dim << " rows " << num_rows;
      }
    }
  }
}

// Every row count k a counter of 1 to 9 planes can take (k = 1 ..
// 2^planes - 1: the AVX2 kernel's unrolled counts, and groups of them past
// 32), counted from zero and onto a counter already holding up to
// 2^planes - 1 - k, against portable. A guard word past the last plane
// must stay untouched.
TEST(BackendEquivalence, CountRowsMatchesPortable) {
  Xoshiro256StarStar rng(0xb008);
  constexpr unsigned kMaxPlanes = 9;
  constexpr std::size_t kMaxRows = (std::size_t{1} << kMaxPlanes) - 1;
  constexpr Word kGuard = 0x5a5a5a5au;
  for (const std::size_t dim : {63u, 64u, 97u, 256u, 10000u, 10016u}) {
    const std::size_t words = words_for_dim(dim);
    std::vector<std::vector<Word>> storage;
    std::vector<const Word*> rows;
    for (std::size_t r = 0; r < 2 * kMaxRows; ++r) {
      storage.push_back(random_row(dim, rng));
      rows.push_back(storage.back().data());
    }
    for (unsigned num_planes = 1; num_planes <= kMaxPlanes; ++num_planes) {
      const std::size_t max_count = (std::size_t{1} << num_planes) - 1;
      for (std::size_t k = 1; k <= max_count; ++k) {
        // The accumulate form starts from the count of `held` other rows.
        const std::size_t held = std::min(k, max_count - k);
        std::vector<Word> start(num_planes * words + 1, kGuard);
        portable_backend().count_rows(rows.data() + kMaxRows, std::max<std::size_t>(held, 1),
                                      start.data(), num_planes, false, words);
        for (const bool accumulate : {false, true}) {
          if (accumulate && held == 0) continue;
          std::vector<Word> ref = start;
          portable_backend().count_rows(rows.data(), k, ref.data(), num_planes, accumulate,
                                        words);
          for (const Backend* backend : compiled_backends()) {
            if (!backend->supported() || backend == &portable_backend()) continue;
            std::vector<Word> planes = start;
            backend->count_rows(rows.data(), k, planes.data(), num_planes, accumulate, words);
            EXPECT_EQ(planes, ref) << backend->name << " dim " << dim << " planes "
                                   << num_planes << " rows " << k << " accumulate "
                                   << accumulate;
            EXPECT_EQ(planes.back(), kGuard);
          }
        }
      }
    }
  }
}

// Random block planes (every count a block can hold) over block shapes
// whose sums need 1 to 11 planes, so the AVX2 readout runs its unrolled
// ring shapes (up to 4 blocks of up to 8 planes) and, past them, hands
// the ring to the portable readout.
TEST(BackendEquivalence, CountersToMajorityMatchesPortable) {
  Xoshiro256StarStar rng(0xb006);
  const std::pair<std::size_t, unsigned> kBlockShapes[] = {{1, 1}, {1, 3}, {2, 1}, {4, 3}, {4, 8},
                                                           {7, 5}, {9, 2}, {3, 9}, {20, 5}};
  for (const std::size_t dim : kDims) {
    const std::size_t words = words_for_dim(dim);
    for (const auto& [num_blocks, block_planes] : kBlockShapes) {
      std::vector<Word> blocks;
      for (std::size_t p = 0; p < num_blocks * block_planes; ++p) {
        const std::vector<Word> row = random_row(dim, rng);
        blocks.insert(blocks.end(), row.begin(), row.end());
      }
      const std::vector<Word> tie_break = random_row(dim, rng);
      const std::size_t max_count = num_blocks * ((std::size_t{1} << block_planes) - 1);
      const std::size_t thresholds[] = {0, max_count / 2, max_count};
      for (const std::size_t threshold : thresholds) {
        for (const Word* tie : {static_cast<const Word*>(nullptr), tie_break.data()}) {
          std::vector<Word> ref(words);
          portable_backend().blocks_to_majority(blocks.data(), num_blocks, block_planes,
                                                threshold, tie, ref.data(), words);
          for (const Backend* backend : compiled_backends()) {
            if (!backend->supported()) continue;
            std::vector<Word> out(words, 0xdeadbeefu);
            backend->blocks_to_majority(blocks.data(), num_blocks, block_planes, threshold,
                                        tie, out.data(), words);
            EXPECT_EQ(out, ref) << backend->name << " dim " << dim << " blocks "
                                << num_blocks << " planes " << block_planes << " threshold "
                                << threshold << " tie " << (tie != nullptr);
          }
        }
      }
    }
  }
}

TEST(BackendEquivalence, CounterKernelsRoundTripMajorityAgainstMajorityWords) {
  // Rows added into hop blocks of four and read out as the blocks' sum
  // must equal the one-shot majority_words majority over the same odd
  // number of rows (the counters through portable).
  Xoshiro256StarStar rng(0xb007);
  constexpr std::size_t kBlockRows = 4;
  const unsigned block_planes = planes_for(kBlockRows);
  const std::size_t kRowCounts[] = {1, 3, 9, 21};
  for (const std::size_t dim : {65u, 10016u}) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : kRowCounts) {
      std::vector<std::vector<Word>> storage;
      std::vector<const Word*> rows(num_rows);
      for (std::size_t r = 0; r < num_rows; ++r) {
        storage.push_back(random_row(dim, rng));
        rows[r] = storage.back().data();
      }
      std::vector<Word> expected(words);
      majority_words(rows.data(), num_rows, expected.data(), words);
      const std::size_t num_blocks = (num_rows + kBlockRows - 1) / kBlockRows;
      std::vector<Word> blocks(num_blocks * block_planes * words);
      for (std::size_t first = 0; first < num_rows; first += kBlockRows) {
        portable_backend().count_rows(rows.data() + first, std::min(kBlockRows, num_rows - first),
                                      blocks.data() + first / kBlockRows * block_planes * words,
                                      block_planes, false, words);
      }
      std::vector<Word> out(words);
      portable_backend().blocks_to_majority(blocks.data(), num_blocks, block_planes,
                                            num_rows / 2, nullptr, out.data(), words);
      EXPECT_EQ(out, expected) << "dim " << dim << " rows " << num_rows;
    }
  }
}

// The spatial encode against its definition: each sample's row is
// hd::majority over the sample's bound channels (oracle::bind_channels,
// straight from the IM and CIM), for 1 to 33 and 64 channels (every
// unrolled AVX2 kernel and the portable one past them), dims with and
// without a sub-vector tail, the serving and paper level counts, and every
// value at and one ulp either side of every threshold. A NaN in any
// channel position, masked tail lanes included, raises the flag.
TEST(BackendEquivalence, EncodeSamplesMatchesMajorityOfBoundChannels) {
  std::vector<std::size_t> channel_counts;
  for (std::size_t c = 1; c <= 33; ++c) channel_counts.push_back(c);
  channel_counts.push_back(64);
  for (const std::size_t dim : {8u, 32u, 256u, 10000u, 10016u}) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t levels : {8u, 22u}) {
      for (const std::size_t channels : channel_counts) {
        SCOPED_TRACE(testing::Message()
                     << "dim " << dim << " levels " << levels << " channels " << channels);
        const hd::SpatialEncoder encoder(hd::ItemMemory(channels, dim, 0xe1 + channels),
                                         hd::ContinuousItemMemory(levels, dim, 0.0, 21.0, 0xe2),
                                         channels);
        const hd::ContinuousItemMemory& cim = encoder.cim();
        std::vector<Word> table;
        for (std::size_t c = 0; c < channels; ++c) {
          for (std::size_t l = 0; l < levels; ++l) {
            const hd::Hypervector bound = encoder.im().at(c) ^ cim.level(l);
            table.insert(table.end(), bound.words().begin(), bound.words().end());
          }
        }
        std::vector<float> values;
        for (const float t : cim.thresholds()) {
          values.insert(values.end(),
                        {std::nextafter(t, -HUGE_VALF), t, std::nextafter(t, HUGE_VALF)});
        }
        // Sample s gives channel c value (s + 5c) % |values|, so every
        // channel sees every value.
        std::vector<std::vector<float>> samples(values.size(), std::vector<float>(channels));
        std::vector<hd::Hypervector> expected;
        {
          const ScopedBackend portable(&portable_backend());
          for (std::size_t s = 0; s < samples.size(); ++s) {
            for (std::size_t c = 0; c < channels; ++c) {
              samples[s][c] = values[(s + 5 * c) % values.size()];
            }
            expected.push_back(hd::majority(hd::oracle::bind_channels(encoder, samples[s])));
          }
        }
        std::vector<const float*> sample_ptrs;
        for (const auto& sample : samples) sample_ptrs.push_back(sample.data());
        for (const Backend* backend : compiled_backends()) {
          if (!backend->supported()) continue;
          // Each row is followed by a canary word the kernel must not touch.
          constexpr Word kCanary = 0xdeadbeefu;
          std::vector<Word> out(samples.size() * (words + 1), kCanary);
          std::vector<Word*> rows;
          for (std::size_t s = 0; s < samples.size(); ++s) rows.push_back(&out[s * (words + 1)]);
          EXPECT_FALSE(backend->encode_samples(sample_ptrs.data(), samples.size(), channels,
                                               cim.thresholds().data(), cim.thresholds().size(),
                                               table.data(), rows.data(), words))
              << backend->name;
          for (std::size_t s = 0; s < samples.size(); ++s) {
            const std::span<const Word> row(rows[s], words);
            ASSERT_TRUE(std::ranges::equal(row, expected[s].words()))
                << backend->name << " sample " << s;
            ASSERT_EQ(rows[s][words], kCanary) << backend->name << " sample " << s;
          }
          // A NaN in channel c of the middle one of three samples.
          for (std::size_t c = 0; c < channels; ++c) {
            std::vector<float> with_nan = samples[1];
            with_nan[c] = std::numeric_limits<float>::quiet_NaN();
            const float* three[] = {samples[0].data(), with_nan.data(), samples[2].data()};
            EXPECT_TRUE(backend->encode_samples(three, 3, channels, cim.thresholds().data(),
                                                cim.thresholds().size(), table.data(),
                                                rows.data(), words))
                << backend->name << " NaN in channel " << c;
          }
        }
      }
    }
  }
}

// The sliding N-gram step against its definition: fed one random stream
// of spatial rows in runs of 1, 7, 64 and 65 rows, every backend's
// ngram_rows writes exactly the stream's full-window grams, each equal to
// oracle::ngram over its window and to the portable kernel's fed one row at
// a time. The gram buffer is reused from run to run, as the encoder reuses
// it, so a run's first step reads the previous gram where the run before
// wrote it. At n = 29, 33 and 40 the window fills across run boundaries;
// n = 33 and 40 move whole words (k >= 32), n = 33 by exactly one word and
// no bit, and at dim 32 the window is deeper than the hypervector. A
// canary word after the run's grams must stay untouched.
TEST(BackendEquivalence, NgramRowsMatchDirectReductionAcrossRuns) {
  constexpr std::size_t kStream = 200;
  constexpr Word kCanary = 0xdeadbeefu;
  Xoshiro256StarStar rng(0x9a11);
  for (const std::size_t dim : {32u, 33u, 97u, 256u, 10000u, 10016u}) {
    const std::size_t words = words_for_dim(dim);
    std::vector<hd::Hypervector> spatial;
    std::vector<Word> stream;
    for (std::size_t s = 0; s < kStream; ++s) {
      spatial.push_back(hd::Hypervector::random(dim, rng));
      stream.insert(stream.end(), spatial.back().words().begin(), spatial.back().words().end());
    }
    for (const std::size_t n : {2u, 3u, 5u, 29u, 33u, 40u}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " n " << n);
      std::vector<hd::Hypervector> expected;
      {
        const ScopedBackend portable(&portable_backend());
        for (std::size_t t = 0; t + n <= kStream; ++t) {
          expected.push_back(hd::oracle::ngram(std::span(spatial).subspan(t, n)));
        }
      }
      const auto run_stream = [&](const Backend& backend, std::size_t run) {
        std::vector<Word> ring(n * words, 0);
        NgramWindow window{.ring = ring.data(), .n = n};
        std::vector<Word> grams(run * words + 1, 0);
        grams.back() = kCanary;
        std::vector<Word> written;
        for (std::size_t base = 0; base < kStream; base += run) {
          const std::size_t count = std::min(run, kStream - base);
          const std::size_t done =
              backend.ngram_rows(window, stream.data() + base * words, count, grams.data(), dim);
          EXPECT_EQ(done, std::min(count, base + count - std::min(base + count, n - 1)))
              << backend.name << " run " << run << " at " << base;
          EXPECT_EQ(grams.back(), kCanary) << backend.name << " run " << run << " at " << base;
          written.insert(written.end(), grams.begin(), grams.begin() + done * words);
        }
        return written;
      };
      const std::vector<Word> reference = run_stream(portable_backend(), 1);
      for (const Backend* backend : compiled_backends()) {
        if (!backend->supported()) continue;
        for (const std::size_t run : {1u, 7u, 64u, 65u}) {
          const std::vector<Word> written = run_stream(*backend, run);
          ASSERT_EQ(written.size(), expected.size() * words) << backend->name << " run " << run;
          EXPECT_EQ(written, reference) << backend->name << " run " << run;
          for (std::size_t t = 0; t < expected.size(); ++t) {
            const std::span<const Word> gram(written.data() + t * words, words);
            ASSERT_TRUE(std::ranges::equal(gram, expected[t].words()))
                << backend->name << " run " << run << " gram " << t;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pulphd::kernels
