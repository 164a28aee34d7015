#include "hd/item_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hd/classifier.hpp"
#include "hd/serialization.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {
namespace {

TEST(ItemMemory, SizesAndDeterminism) {
  const ItemMemory a(4, 10000, 42);
  const ItemMemory b(4, 10000, 42);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.dim(), 10000u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(ItemMemory, DifferentSeedsDiffer) {
  const ItemMemory a(2, 1000, 1);
  const ItemMemory b(2, 1000, 2);
  EXPECT_NE(a.at(0), b.at(0));
}

TEST(ItemMemory, ItemsAreMutuallyQuasiOrthogonal) {
  // "E1 is orthogonal to E2 ... Ei" (§2.1.1)
  const ItemMemory im(8, 10000, 7);
  for (std::size_t i = 0; i < im.size(); ++i) {
    for (std::size_t j = i + 1; j < im.size(); ++j) {
      EXPECT_NEAR(im.at(i).normalized_hamming(im.at(j)), 0.5, 0.025);
    }
  }
}

TEST(ItemMemory, FootprintMatchesPaper) {
  // §3: IM (4x313 words) ~ 5 kB.
  const ItemMemory im(4, 10000, 1);
  EXPECT_EQ(im.footprint_bytes(), 4u * 313u * 4u);
  EXPECT_NEAR(static_cast<double>(im.footprint_bytes()) / 1024.0, 4.9, 0.2);
}

TEST(ItemMemory, BoundsChecked) {
  const ItemMemory im(3, 100, 1);
  EXPECT_THROW((void)im.at(3), std::invalid_argument);
}

TEST(ItemMemory, RejectsBadArguments) {
  EXPECT_THROW(ItemMemory(0, 100, 1), std::invalid_argument);
  EXPECT_THROW(ItemMemory(1, 0, 1), std::invalid_argument);
}

TEST(ContinuousItemMemory, EndpointsAreOrthogonal) {
  // "orthogonal endpoint hypervectors are generated for the minimum and
  // maximum signal levels" (§2.1.1).
  const ContinuousItemMemory cim(22, 10000, 0.0, 21.0, 3);
  const double d = cim.level(0).normalized_hamming(cim.level(21));
  EXPECT_NEAR(d, 0.5, 0.01);
}

TEST(ContinuousItemMemory, DistanceGrowsLinearlyWithLevelGap) {
  const ContinuousItemMemory cim(22, 10000, 0.0, 21.0, 4);
  const double step = 0.5 / 21.0;  // per-level distance increment
  for (std::size_t l = 0; l < 22; ++l) {
    EXPECT_NEAR(cim.level(0).normalized_hamming(cim.level(l)),
                step * static_cast<double>(l), 0.01)
        << "level " << l;
  }
}

TEST(ContinuousItemMemory, NeighborLevelsAreSimilar) {
  const ContinuousItemMemory cim(22, 10000, 0.0, 21.0, 5);
  for (std::size_t l = 0; l + 1 < 22; ++l) {
    EXPECT_LT(cim.level(l).normalized_hamming(cim.level(l + 1)), 0.05);
  }
}

TEST(ContinuousItemMemory, MonotoneDistanceFromAnyLevel) {
  const ContinuousItemMemory cim(10, 5000, 0.0, 1.0, 6);
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b + 1 < 10; ++b) {
      EXPECT_LE(cim.level(a).hamming(cim.level(b)),
                cim.level(a).hamming(cim.level(b + 1)));
    }
  }
}

class QuantizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizeTest, RoundsToNearestLevel) {
  const std::size_t levels = GetParam();
  const ContinuousItemMemory cim(levels, 256, 0.0, 21.0, 7);
  const double level_width = 21.0 / static_cast<double>(levels - 1);
  for (std::size_t l = 0; l < levels; ++l) {
    const double center = static_cast<double>(l) * level_width;
    EXPECT_EQ(cim.quantize(center), l);
    // Just inside the rounding boundary.
    EXPECT_EQ(cim.quantize(center + 0.49 * level_width), l);
    EXPECT_EQ(cim.quantize(center - 0.49 * level_width), l);
  }
}

TEST_P(QuantizeTest, SaturatesOutsideRange) {
  const std::size_t levels = GetParam();
  const ContinuousItemMemory cim(levels, 256, 0.0, 21.0, 8);
  EXPECT_EQ(cim.quantize(-5.0), 0u);
  EXPECT_EQ(cim.quantize(0.0), 0u);
  EXPECT_EQ(cim.quantize(21.0), levels - 1);
  EXPECT_EQ(cim.quantize(100.0), levels - 1);
}

// The rounding quantize must reproduce: saturate outside the range, else
// std::lround of the scaled value.
std::size_t lround_reference(const ContinuousItemMemory& cim, double value) {
  if (value <= cim.min_value()) return 0;
  if (value >= cim.max_value()) return cim.levels() - 1;
  const double unit = (value - cim.min_value()) / (cim.max_value() - cim.min_value());
  return static_cast<std::size_t>(std::lround(unit * static_cast<double>(cim.levels() - 1)));
}

TEST_P(QuantizeTest, MatchesLroundOnRandomValues) {
  const std::size_t levels = GetParam();
  Xoshiro256StarStar rng(0x9a47 + levels);
  const double ranges[][2] = {{0.0, 21.0}, {-3.7, 5.2}, {1e-3, 2e-3}};
  for (const auto& range : ranges) {
    const ContinuousItemMemory cim(levels, 64, range[0], range[1], 10);
    const double width = range[1] - range[0];
    for (int i = 0; i < 20000; ++i) {
      // Uniform over the range widened by 10% on each side.
      const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      const double value = range[0] + (1.2 * u - 0.1) * width;
      ASSERT_EQ(cim.quantize(value), lround_reference(cim, value)) << value;
    }
  }
}

TEST_P(QuantizeTest, MatchesLroundAroundHalfLevels) {
  // Every half-level point and 50 ulps either side of it: the values where
  // a rounding rule that differs from lround would show.
  const std::size_t levels = GetParam();
  const double ranges[][2] = {{0.0, 21.0}, {-3.7, 5.2}};
  for (const auto& range : ranges) {
    const ContinuousItemMemory cim(levels, 64, range[0], range[1], 11);
    const double step = (range[1] - range[0]) / static_cast<double>(levels - 1);
    for (std::size_t l = 0; l + 1 < levels; ++l) {
      double value = range[0] + (static_cast<double>(l) + 0.5) * step;
      for (int k = 0; k < 50; ++k) value = std::nextafter(value, -HUGE_VAL);
      for (int k = 0; k <= 100; ++k, value = std::nextafter(value, HUGE_VAL)) {
        ASSERT_EQ(cim.quantize(value), lround_reference(cim, value)) << value;
      }
    }
  }
}

TEST_P(QuantizeTest, NanHasNoLevel) {
  const std::size_t levels = GetParam();
  const ContinuousItemMemory cim(levels, 64, 0.0, 21.0, 12);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(cim.quantize(nan), levels);
  EXPECT_THROW(cim.encode(nan), std::invalid_argument);
  EXPECT_EQ(cim.quantize(HUGE_VAL), levels - 1);
  EXPECT_EQ(cim.quantize(-HUGE_VAL), 0u);
}

INSTANTIATE_TEST_SUITE_P(LevelCounts, QuantizeTest,
                         ::testing::Values(2ul, 3ul, 10ul, 22ul, 64ul));

TEST(ContinuousItemMemory, EncodeComposesQuantizeAndLookup) {
  const ContinuousItemMemory cim(22, 1000, 0.0, 21.0, 9);
  EXPECT_EQ(cim.encode(10.0), cim.level(cim.quantize(10.0)));
}

TEST(ContinuousItemMemory, FootprintMatchesPaper) {
  // §3: CIM (22x313 words) ~ 27 kB.
  const ContinuousItemMemory cim(22, 10000, 0.0, 21.0, 10);
  EXPECT_NEAR(static_cast<double>(cim.footprint_bytes()) / 1024.0, 26.9, 0.3);
}

TEST(ContinuousItemMemory, RejectsBadArguments) {
  EXPECT_THROW(ContinuousItemMemory(1, 100, 0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(ContinuousItemMemory(5, 100, 1.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(ContinuousItemMemory(5, 100, 2.0, 1.0, 1), std::invalid_argument);
}

TEST(ContinuousItemMemory, Deterministic) {
  const ContinuousItemMemory a(22, 2000, 0.0, 21.0, 11);
  const ContinuousItemMemory b(22, 2000, 0.0, 21.0, 11);
  for (std::size_t l = 0; l < 22; ++l) EXPECT_EQ(a.level(l), b.level(l));
}

// --- Exact level thresholds --------------------------------------------
//
// The spatial encoder reads each channel's level as the number of CIM
// thresholds its value reaches (inside Backend::encode_samples). quantize
// is non-decreasing, so that count equals quantize everywhere once it does
// at and next to every step point; these tests pin the step points, their
// neighbourhoods and the special values on every backend, and an opt-in
// test sweeps every float.

// The CIM shapes the host serves: the paper point (22 levels over [0, 21]
// mV) and the serving benchmark's bulk model (8 levels over the same
// range), plus an off-centre range with a negative minimum. gtest prints
// the parameter's bytes into each test's name, so the name is held inline:
// a pointer would print a load address that changes on every run.
struct CimShape {
  char name[12];
  std::uint32_t levels;
  double min_value;
  double max_value;
};

class LevelThresholdTest : public ::testing::TestWithParam<CimShape> {
 protected:
  ContinuousItemMemory make_cim() const {
    const CimShape shape = GetParam();
    return ContinuousItemMemory(shape.levels, 64, shape.min_value, shape.max_value, 3);
  }
};

std::vector<const kernels::Backend*> supported_backends() {
  std::vector<const kernels::Backend*> out;
  for (const kernels::Backend* b : kernels::compiled_backends()) {
    if (b->supported()) out.push_back(b);
  }
  return out;
}

// Reads levels back through Backend::encode_samples: against a table whose
// row c * levels + l holds the one word l, a one-channel sample's spatial
// row is its level, since the majority of one row is that row.
class LevelReader {
 public:
  /// Reads up to `max_samples` samples of `channels` values per call.
  LevelReader(const ContinuousItemMemory& cim, std::size_t channels, std::size_t max_samples)
      : thresholds_(cim.thresholds()),
        channels_(channels),
        table_(channels * cim.levels()),
        samples_(max_samples),
        out_(max_samples) {
    for (std::size_t r = 0; r < table_.size(); ++r) table_[r] = static_cast<Word>(r % cim.levels());
  }

  /// Encodes values.size() / channels samples into out[0 ..] (one word
  /// each); returns the NaN flag.
  bool read(const kernels::Backend& backend, std::span<const float> values, Word* out) {
    const std::size_t samples = values.size() / channels_;
    EXPECT_LE(samples, samples_.size());
    for (std::size_t s = 0; s < samples; ++s) {
      samples_[s] = values.data() + s * channels_;
      out_[s] = out + s;
    }
    return backend.encode_samples(samples_.data(), samples, channels_, thresholds_.data(),
                                  thresholds_.size(), table_.data(), out_.data(), 1);
  }

 private:
  std::span<const float> thresholds_;
  std::size_t channels_;
  std::vector<Word> table_;
  std::vector<const float*> samples_;
  std::vector<Word*> out_;
};

// Runs every supported backend's level read over `values` in chunks of 1
// to 19 one-channel samples and checks each non-NaN value's level against
// quantize, each chunk's NaN flag, and that nothing is written past the
// chunk.
void expect_counts_match_quantize(const ContinuousItemMemory& cim,
                                  std::span<const float> values) {
  constexpr std::size_t kMaxChunk = 19;
  constexpr Word kCanary = 0xdeadbeef;
  LevelReader reader(cim, 1, kMaxChunk);
  for (const kernels::Backend* backend : supported_backends()) {
    std::vector<Word> levels(kMaxChunk + 1);
    for (std::size_t begin = 0, chunk = 1; begin < values.size();
         begin += chunk, chunk = chunk % kMaxChunk + 1) {
      const std::size_t count = std::min(chunk, values.size() - begin);
      const std::span<const float> part = values.subspan(begin, count);
      levels[count] = kCanary;
      const bool nan = reader.read(*backend, part, levels.data());
      ASSERT_EQ(levels[count], kCanary) << backend->name << ": wrote past " << count;
      bool any_nan = false;
      for (std::size_t i = 0; i < count; ++i) {
        if (std::isnan(part[i])) {
          any_nan = true;
          continue;
        }
        ASSERT_EQ(levels[i], cim.quantize(part[i]))
            << backend->name << ": value " << std::hexfloat << part[i] << " (bits 0x"
            << std::hex << std::bit_cast<std::uint32_t>(part[i]) << ")";
      }
      ASSERT_EQ(nan, any_nan) << backend->name << ": NaN flag, chunk at " << begin;
    }
  }
}

// Every threshold and the 64 floats on either side of it.
std::vector<float> threshold_neighbourhoods(const ContinuousItemMemory& cim) {
  std::vector<float> values;
  for (const float t : cim.thresholds()) {
    float value = t;
    for (int i = 0; i < 64; ++i) value = std::nextafter(value, -HUGE_VALF);
    for (int i = 0; i <= 128; ++i, value = std::nextafter(value, HUGE_VALF)) {
      values.push_back(value);
    }
  }
  return values;
}

TEST_P(LevelThresholdTest, EachThresholdIsTheLeastFloatOfItsLevel) {
  const ContinuousItemMemory cim = make_cim();
  const std::span<const float> thresholds = cim.thresholds();
  ASSERT_EQ(thresholds.size(), cim.levels() - 1);
  for (std::size_t k = 0; k < thresholds.size(); ++k) {
    const float t = thresholds[k];
    EXPECT_GE(cim.quantize(t), k + 1) << "threshold " << k;
    EXPECT_LT(cim.quantize(std::nextafter(t, -HUGE_VALF)), k + 1) << "threshold " << k;
    if (k > 0) {
      EXPECT_LT(thresholds[k - 1], t);
    }
  }
}

TEST_P(LevelThresholdTest, CountsMatchQuantizeAroundEveryThreshold) {
  const ContinuousItemMemory cim = make_cim();
  ASSERT_NO_FATAL_FAILURE(expect_counts_match_quantize(cim, threshold_neighbourhoods(cim)));
}

TEST_P(LevelThresholdTest, CountsMatchQuantizeOnZerosInfinitiesAndSubnormals) {
  const ContinuousItemMemory cim = make_cim();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
  constexpr float kNormMin = std::numeric_limits<float>::min();
  constexpr float kMax = std::numeric_limits<float>::max();
  const std::vector<float> values = {
      0.0f, -0.0f, kInf, -kInf, kDenormMin, -kDenormMin, 2 * kDenormMin, -3 * kDenormMin,
      std::bit_cast<float>(0x00400000u),  // a mid-range subnormal
      std::bit_cast<float>(0x807fffffu),  // the largest negative subnormal
      std::nextafter(kNormMin, 0.0f), -std::nextafter(kNormMin, 0.0f), kNormMin, -kNormMin,
      kMax, -kMax, static_cast<float>(cim.min_value()), static_cast<float>(cim.max_value())};
  ASSERT_NO_FATAL_FAILURE(expect_counts_match_quantize(cim, values));
}

TEST_P(LevelThresholdTest, NanPayloadsAreFlagged) {
  const ContinuousItemMemory cim = make_cim();
  const std::uint32_t nan_bits[] = {
      0x7fc00000u,  // the default quiet NaN
      0xffc00000u,  // negative quiet NaN
      0x7f800001u,  // signalling, smallest payload
      0xff800001u,  0x7fffffffu, 0xffffffffu, 0x7fa5a5a5u, 0xffb00000u};
  for (const std::uint32_t bits : nan_bits) {
    const float nan = std::bit_cast<float>(bits);
    ASSERT_TRUE(std::isnan(nan));
    // The NaN alone, and in every lane of a 9-channel sample (the first
    // vector and the masked tail) among ordinary values.
    ASSERT_NO_FATAL_FAILURE(expect_counts_match_quantize(cim, std::vector<float>{nan}));
    for (std::size_t lane = 0; lane < 9; ++lane) {
      std::vector<float> sample = {0.5f, 3.0f, 7.25f, 20.0f, -1.0f, 30.0f, 10.5f, 1.0f, 14.0f};
      sample[lane] = nan;
      LevelReader reader(cim, sample.size(), 1);
      for (const kernels::Backend* backend : supported_backends()) {
        Word out = 0;
        EXPECT_TRUE(reader.read(*backend, sample, &out))
            << backend->name << " lane " << lane << std::hex << " bits 0x" << bits;
      }
    }
  }
}

TEST_P(LevelThresholdTest, CountsMatchQuantizeOnRandomFloatBitPatterns) {
  const ContinuousItemMemory cim = make_cim();
  Xoshiro256StarStar rng(0x7e5a + GetParam().levels);
  std::vector<float> values(1'000'000);
  for (float& v : values) v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next() >> 32));
  ASSERT_NO_FATAL_FAILURE(expect_counts_match_quantize(cim, values));
}

TEST_P(LevelThresholdTest, DeserializedCimFindsTheSameThresholds) {
  // A classifier loaded from a saved model rebuilds its CIM from the stored
  // seed and range, and finds the same thresholds as the one it was saved from.
  const CimShape shape = GetParam();
  ClassifierConfig config;
  config.dim = 64;
  config.levels = shape.levels;
  config.min_value = shape.min_value;
  config.max_value = shape.max_value;
  const HdClassifier original(config);
  std::stringstream buffer;
  save_model(original, buffer);
  const HdClassifier loaded = classifier_from_model(load_model(buffer));
  const ContinuousItemMemory& cim = loaded.cim();
  EXPECT_EQ(cim.min_value(), shape.min_value);
  EXPECT_EQ(cim.max_value(), shape.max_value);
  EXPECT_TRUE(std::ranges::equal(cim.thresholds(), original.cim().thresholds()));
  ASSERT_NO_FATAL_FAILURE(expect_counts_match_quantize(cim, threshold_neighbourhoods(cim)));
}

// Opt-in, about 150 s per CIM shape in Release: every one of the 2^32
// float bit patterns on every backend. Run it from the build directory with
//   tests/hd_item_memory_test --gtest_also_run_disabled_tests
//       --gtest_filter='*CountsMatchQuantizeOnEveryFloat*'
TEST_P(LevelThresholdTest, DISABLED_CountsMatchQuantizeOnEveryFloat) {
  const ContinuousItemMemory cim = make_cim();
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<float> values(kBlock);
  std::vector<Word> levels(kBlock);
  LevelReader reader(cim, 1, kBlock);
  const std::vector<const kernels::Backend*> backends = supported_backends();
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32); base += kBlock) {
    bool any_nan = false;
    for (std::size_t i = 0; i < kBlock; ++i) {
      values[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
      any_nan |= std::isnan(values[i]);
    }
    for (const kernels::Backend* backend : backends) {
      const bool nan = reader.read(*backend, values, levels.data());
      ASSERT_EQ(nan, any_nan) << backend->name << " block 0x" << std::hex << base;
      for (std::size_t i = 0; i < kBlock; ++i) {
        if (std::isnan(values[i])) continue;
        ASSERT_EQ(levels[i], cim.quantize(values[i]))
            << backend->name << " bits 0x" << std::hex << base + i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CimShapes, LevelThresholdTest,
                         ::testing::Values(CimShape{"Paper", 22, 0.0, 21.0},
                                           CimShape{"Bulk", 8, 0.0, 21.0},
                                           CimShape{"OffCentre", 10, -3.7, 5.2}),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace pulphd::hd
