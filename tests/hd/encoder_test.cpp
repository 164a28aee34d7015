#include "hd/encoder.hpp"

#include <gtest/gtest.h>

namespace pulphd::hd {
namespace {

struct Fixture {
  std::size_t dim = 2048;
  ItemMemory im{4, 2048, 1};
  ContinuousItemMemory cim{22, 2048, 0.0, 21.0, 2};
};

TEST(SpatialEncoder, MatchesManualComputation) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{3.0f, 18.0f, 0.5f, 9.0f};
  std::vector<Hypervector> bound;
  for (std::size_t c = 0; c < 4; ++c) bound.push_back(f.im.at(c) ^ f.cim.encode(sample[c]));
  bound.push_back(bound[0] ^ bound[1]);  // even channel count: §5.1 tie-break
  EXPECT_EQ(enc.encode(sample), majority(bound));
}

TEST(SpatialEncoder, OddChannelCountHasNoTiebreak) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 3);
  const std::vector<float> sample{3.0f, 18.0f, 0.5f};
  const auto bound = enc.bind_channels(sample);
  EXPECT_EQ(bound.size(), 3u);
}

TEST(SpatialEncoder, EvenChannelCountAddsTiebreak) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{1.0f, 2.0f, 3.0f, 4.0f};
  const auto bound = enc.bind_channels(sample);
  ASSERT_EQ(bound.size(), 5u);
  EXPECT_EQ(bound[4], bound[0] ^ bound[1]);
}

TEST(SpatialEncoder, SimilarSamplesGiveSimilarHypervectors) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const Hypervector a = enc.encode(std::vector<float>{5.0f, 10.0f, 2.0f, 15.0f});
  const Hypervector b = enc.encode(std::vector<float>{5.5f, 10.5f, 2.2f, 15.5f});
  const Hypervector c = enc.encode(std::vector<float>{20.0f, 1.0f, 18.0f, 3.0f});
  // The shared channel vectors keep even dissimilar samples correlated, so
  // the far sample lands around d ~ 0.25; the near one must be much closer.
  EXPECT_LT(a.normalized_hamming(b), 0.2);
  EXPECT_GT(a.normalized_hamming(c), 0.22);
  EXPECT_GT(a.normalized_hamming(c), a.normalized_hamming(b) + 0.05);
}

TEST(SpatialEncoder, SameSampleIsDeterministic) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{4.0f, 4.0f, 4.0f, 4.0f};
  EXPECT_EQ(enc.encode(sample), enc.encode(sample));
}

TEST(SpatialEncoder, ValidatesArguments) {
  Fixture f;
  EXPECT_THROW(SpatialEncoder(f.im, f.cim, 5), std::invalid_argument);  // IM too small
  EXPECT_THROW(SpatialEncoder(f.im, f.cim, 0), std::invalid_argument);
  const SpatialEncoder enc(f.im, f.cim, 4);
  EXPECT_THROW((void)enc.encode(std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(SpatialEncoder, RejectsMismatchedMemories) {
  ItemMemory im(4, 128, 1);
  ContinuousItemMemory cim(4, 256, 0.0, 1.0, 2);
  EXPECT_THROW(SpatialEncoder(im, cim, 4), std::invalid_argument);
}

}  // namespace
}  // namespace pulphd::hd
