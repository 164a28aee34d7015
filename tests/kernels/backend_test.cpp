// Bit-exact equivalence of every compiled kernel backend against the
// portable SWAR reference, across dimensions that exercise every tail shape
// (sub-word, exact-word, word+1, the paper's 313-word rows and the 10,048-D
// bench config), empty/1/3/129-row batches and 1-vs-N thread counts; plus
// the dispatch contract: PULPHD_BACKEND is honored, unknown values fail
// with a clear error.
#include "kernels/backend.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hd/associative_memory.hpp"

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
    EXPECT_NE(message.find("portable"), std::string::npos) << message;
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

TEST(BackendEquivalence, XorWordsMatchesPortableOnAllTailShapes) {
  Xoshiro256StarStar rng(0xb002);
  for (const std::size_t dim : kDims) {
    const std::vector<Word> a = random_row(dim, rng);
    const std::vector<Word> b = random_row(dim, rng);
    std::vector<Word> ref(a.size());
    portable_backend().xor_words(a.data(), b.data(), ref.data(), a.size());
    for (const Backend* backend : compiled_backends()) {
      if (!backend->supported()) continue;
      std::vector<Word> out(a.size(), 0xdeadbeefu);
      backend->xor_words(a.data(), b.data(), out.data(), a.size());
      EXPECT_EQ(out, ref) << backend->name << " dim " << dim;
      // In-place use (out aliasing a) must give the same bits.
      std::vector<Word> in_place = a;
      backend->xor_words(in_place.data(), b.data(), in_place.data(), a.size());
      EXPECT_EQ(in_place, ref) << backend->name << " in-place dim " << dim;
    }
  }
}

TEST(BackendEquivalence, ThresholdWordsMatchesPortable) {
  Xoshiro256StarStar rng(0xb003);
  const std::size_t kRowCounts[] = {1, 3, 5, 9, 33, 129};
  for (const std::size_t dim : kDims) {
    for (const std::size_t num_rows : kRowCounts) {
      std::vector<std::vector<Word>> storage;
      storage.reserve(num_rows);
      std::vector<const Word*> rows(num_rows);
      for (std::size_t r = 0; r < num_rows; ++r) {
        storage.push_back(random_row(dim, rng));
        rows[r] = storage.back().data();
      }
      const std::size_t words = words_for_dim(dim);
      // The majority threshold plus the boundary thresholds 0 and n-1.
      const std::size_t thresholds[] = {num_rows / 2, 0, num_rows - 1};
      for (const std::size_t threshold : thresholds) {
        std::vector<Word> ref(words);
        portable_backend().threshold_words(rows.data(), num_rows, threshold, ref.data(),
                                           words);
        for (const Backend* backend : compiled_backends()) {
          if (!backend->supported()) continue;
          std::vector<Word> out(words, 0xdeadbeefu);
          backend->threshold_words(rows.data(), num_rows, threshold, out.data(), words);
          EXPECT_EQ(out, ref) << backend->name << " dim " << dim << " rows " << num_rows
                              << " threshold " << threshold;
        }
      }
    }
  }
}

TEST(BackendEquivalence, ThresholdWordsMatchesColumnCountOracle) {
  // Reference from first principles, not from another kernel: count the
  // set bits of each column and compare with the threshold. Odd and even
  // row counts run the paired-row adders with and without a leftover row.
  // Together the counts need 1 to 9 counter planes, and 257 rows need more
  // than the fixed-plane kernels cover. Dims 8 and 10,000 leave a
  // sub-vector tail, 256 does not.
  Xoshiro256StarStar rng(0xb004);
  std::vector<std::size_t> row_counts;
  for (std::size_t r = 1; r <= 40; ++r) row_counts.push_back(r);
  for (const std::size_t r : {100, 129, 257}) row_counts.push_back(r);
  for (const std::size_t dim : {std::size_t{8}, std::size_t{256}, std::size_t{10000}}) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : row_counts) {
      std::vector<std::vector<Word>> storage;
      storage.reserve(num_rows);
      std::vector<const Word*> rows(num_rows);
      std::vector<std::size_t> column_count(words * kWordBits, 0);
      for (std::size_t r = 0; r < num_rows; ++r) {
        storage.push_back(random_row(dim, rng));
        rows[r] = storage.back().data();
        for (std::size_t b = 0; b < column_count.size(); ++b) {
          column_count[b] += (rows[r][b / kWordBits] >> (b % kWordBits)) & 1u;
        }
      }
      for (const std::size_t threshold : {num_rows / 2, std::size_t{0}, num_rows - 1}) {
        std::vector<Word> expected(words, 0);
        for (std::size_t b = 0; b < column_count.size(); ++b) {
          if (column_count[b] > threshold) expected[b / kWordBits] |= Word{1} << (b % kWordBits);
        }
        for (const Backend* backend : compiled_backends()) {
          if (!backend->supported()) continue;
          std::vector<Word> out(words, 0xdeadbeefu);
          backend->threshold_words(rows.data(), num_rows, threshold, out.data(), words);
          ASSERT_EQ(out, expected) << backend->name << " dim " << dim << " rows " << num_rows
                                   << " threshold " << threshold;
        }
      }
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

TEST(BackendEquivalence, AmClassifyBatchMatchesPortableAcrossThreads) {
  BackendGuard guard;
  Xoshiro256StarStar rng(0xb004);
  const std::size_t kBatches[] = {0, 1, 3, 129};
  const std::size_t kThreads[] = {1, 4};
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
      const std::vector<DecisionFields> ref = decision_fields(am.classify_batch(queries, 1));
      ASSERT_EQ(ref.size(), batch);
      for (const Backend* backend : compiled_backends()) {
        if (!backend->supported()) continue;
        for (const std::size_t threads : kThreads) {
          force_backend(backend);
          const std::vector<DecisionFields> out =
              decision_fields(am.classify_batch(queries, threads));
          EXPECT_EQ(out, ref) << backend->name << " dim " << dim << " batch " << batch
                              << " threads " << threads;
        }
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

// Row counts up to 300 need 9 planes, past the AVX2 kernel's fixed-count
// instantiations.
TEST(BackendEquivalence, AccumulateCountersMatchesBitSerialReference) {
  Xoshiro256StarStar rng(0xb005);
  const std::size_t kRowCounts[] = {1, 2, 5, 9, 20, 300};
  for (const std::size_t dim : kDims) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : kRowCounts) {
      const unsigned num_planes = planes_for(num_rows);
      std::vector<std::vector<Word>> rows;
      for (std::size_t r = 0; r < num_rows; ++r) rows.push_back(random_row(dim, rng));
      const std::vector<Word> expected =
          planes_to_words(column_counts(rows, dim), num_planes, words);
      for (const Backend* backend : compiled_backends()) {
        if (!backend->supported()) continue;
        std::vector<Word> planes(num_planes * words, 0);
        for (const auto& row : rows) {
          backend->add_to_counter(row.data(), planes.data(), num_planes, words);
        }
        EXPECT_EQ(planes, expected)
            << backend->name << " dim " << dim << " rows " << num_rows;
      }
    }
  }
}

// Random block planes (every count a block can hold) over block shapes
// whose sums need 1 to 10 planes, so the AVX2 readout runs both fixed-count
// instantiations and the run-time one.
TEST(BackendEquivalence, CountersToMajorityMatchesPortable) {
  Xoshiro256StarStar rng(0xb006);
  const std::pair<std::size_t, unsigned> kBlockShapes[] = {{1, 1}, {1, 3}, {2, 1}, {4, 3},
                                                           {7, 5}, {20, 5}};
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

TEST(BackendEquivalence, CounterKernelsRoundTripMajorityAgainstThresholdWords) {
  // Rows added into hop blocks of four and read out as the blocks' sum
  // must equal the one-shot threshold_words majority over the same rows
  // (both through portable).
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
      portable_backend().threshold_words(rows.data(), num_rows, num_rows / 2,
                                         expected.data(), words);
      const std::size_t num_blocks = (num_rows + kBlockRows - 1) / kBlockRows;
      std::vector<Word> blocks(num_blocks * block_planes * words, 0);
      for (std::size_t r = 0; r < num_rows; ++r) {
        portable_backend().add_to_counter(
            rows[r], blocks.data() + r / kBlockRows * block_planes * words, block_planes,
            words);
      }
      std::vector<Word> out(words);
      portable_backend().blocks_to_majority(blocks.data(), num_blocks, block_planes,
                                            num_rows / 2, nullptr, out.data(), words);
      EXPECT_EQ(out, expected) << "dim " << dim << " rows " << num_rows;
    }
  }
}

}  // namespace
}  // namespace pulphd::kernels
