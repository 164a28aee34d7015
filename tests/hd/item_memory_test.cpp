#include "hd/item_memory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

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

TEST(ItemMemory, FromVectorsValidatesConsistency) {
  std::vector<Hypervector> rows{Hypervector(64), Hypervector(65)};
  EXPECT_THROW(ItemMemory im(std::move(rows)), std::invalid_argument);
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

}  // namespace
}  // namespace pulphd::hd
