#include "hd/encoder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernels/backend.hpp"
#include "tests/support/encode_oracle.hpp"

namespace pulphd::hd {
namespace {

using oracle::bind_channels;
using oracle::spatial_encode;

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
  EXPECT_EQ(spatial_encode(enc, sample), majority(bound));
}

TEST(SpatialEncoder, OddChannelCountHasNoTiebreak) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 3);
  const std::vector<float> sample{3.0f, 18.0f, 0.5f};
  const auto bound = bind_channels(enc, sample);
  EXPECT_EQ(bound.size(), 3u);
}

TEST(SpatialEncoder, EvenChannelCountAddsTiebreak) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{1.0f, 2.0f, 3.0f, 4.0f};
  const auto bound = bind_channels(enc, sample);
  ASSERT_EQ(bound.size(), 5u);
  EXPECT_EQ(bound[4], bound[0] ^ bound[1]);
}

TEST(SpatialEncoder, EncodeMatchesPerColumnCountOfBoundChannels) {
  // hd::majority runs the same kernel as the table encode, so this oracle
  // counts each component over bind_channels (with §5.1's tie-break
  // operand for an even channel count) by hand, on every backend.
  // D = 10,000 leaves a sub-vector tail.
  const std::size_t dim = 10000;
  for (const std::size_t channels : {1, 2, 4, 31, 32, 33, 64}) {
    const ItemMemory im(channels, dim, 31);
    const ContinuousItemMemory cim(22, dim, 0.0, 21.0, 32);
    const SpatialEncoder enc(im, cim, channels);
    for (std::size_t s = 0; s < 3; ++s) {
      std::vector<float> sample(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        sample[c] = static_cast<float>((s * 7 + c * 3) % 22) + 0.5f;
      }
      const std::vector<Hypervector> bound = bind_channels(enc, sample);
      ASSERT_EQ(bound.size(), channels | 1u);
      Hypervector expected(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        std::size_t count = 0;
        for (const Hypervector& row : bound) count += row.bit(i) ? 1 : 0;
        expected.set_bit(i, 2 * count > bound.size());
      }
      for (const kernels::Backend* backend : kernels::compiled_backends()) {
        if (!backend->supported()) continue;
        const kernels::ScopedBackend scoped(backend);
        EXPECT_EQ(spatial_encode(enc, sample), expected)
            << backend->name << " channels " << channels << " sample " << s;
      }
    }
  }
}

TEST(SpatialEncoder, SimilarSamplesGiveSimilarHypervectors) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const Hypervector a = spatial_encode(enc, std::vector<float>{5.0f, 10.0f, 2.0f, 15.0f});
  const Hypervector b = spatial_encode(enc, std::vector<float>{5.5f, 10.5f, 2.2f, 15.5f});
  const Hypervector c = spatial_encode(enc, std::vector<float>{20.0f, 1.0f, 18.0f, 3.0f});
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
  EXPECT_EQ(spatial_encode(enc, sample), spatial_encode(enc, sample));
}

TEST(SpatialEncoder, ValidatesArguments) {
  Fixture f;
  EXPECT_THROW(SpatialEncoder(f.im, f.cim, 5), std::invalid_argument);  // IM too small
  EXPECT_THROW(SpatialEncoder(f.im, f.cim, 0), std::invalid_argument);
  const SpatialEncoder enc(f.im, f.cim, 4);
  EXPECT_THROW((void)spatial_encode(enc, std::vector<float>{1.0f}), std::invalid_argument);
}

std::vector<std::vector<float>> probe_samples() {
  return {{3.0f, 18.0f, 0.5f, 9.0f}, {0.0f, 21.0f, 10.5f, -4.0f}, {7.2f, 7.3f, 30.0f, 1.1f}};
}

void expect_same_encoding(const SpatialEncoder& a, const SpatialEncoder& b) {
  const std::vector<std::vector<float>> samples = probe_samples();
  std::vector<Hypervector> batch_a(samples.size(), Hypervector(a.dim()));
  std::vector<Hypervector> batch_b(samples.size(), Hypervector(b.dim()));
  a.encode_batch(samples, batch_a);
  b.encode_batch(samples, batch_b);
  EXPECT_EQ(batch_a, batch_b);
  for (const std::vector<float>& sample : samples) {
    EXPECT_EQ(spatial_encode(a, sample), spatial_encode(b, sample));
    EXPECT_EQ(bind_channels(a, sample), bind_channels(b, sample));
  }
}

TEST(SpatialEncoder, OwnsMemoriesBuiltFromTemporaries) {
  // The temporaries die at the end of the declaration; the encoder must
  // have taken its own copies.
  const SpatialEncoder from_temporaries(ItemMemory(4, 2048, 1),
                                        ContinuousItemMemory(22, 2048, 0.0, 21.0, 2), 4);
  Fixture f;
  const SpatialEncoder from_named(f.im, f.cim, 4);
  EXPECT_EQ(from_temporaries.im().items(), f.im.items());
  EXPECT_EQ(from_temporaries.cim().items(), f.cim.items());
  expect_same_encoding(from_temporaries, from_named);
}

TEST(SpatialEncoder, CopyOutlivesItsSourceAndItsMemories) {
  Fixture f;
  const SpatialEncoder reference(f.im, f.cim, 4);
  auto memories = std::make_unique<Fixture>();
  auto source = std::make_unique<SpatialEncoder>(memories->im, memories->cim, 4);
  const SpatialEncoder copy = *source;
  source.reset();
  memories.reset();
  EXPECT_EQ(copy.table_bytes(), reference.table_bytes());
  expect_same_encoding(copy, reference);
}

TEST(SpatialEncoder, RejectsMismatchedMemories) {
  ItemMemory im(4, 128, 1);
  ContinuousItemMemory cim(4, 256, 0.0, 1.0, 2);
  EXPECT_THROW(SpatialEncoder(im, cim, 4), std::invalid_argument);
}

// The spatial kernels keep a sample's row offsets on their stack, for at
// most kernels::kMaxEncodeChannels channels.
TEST(SpatialEncoder, RejectsMoreChannelsThanTheKernelsTake) {
  const ContinuousItemMemory cim(2, 32, 0.0, 1.0, 2);
  const std::size_t most = kernels::kMaxEncodeChannels;
  EXPECT_NO_THROW(SpatialEncoder(ItemMemory(most, 32, 1), cim, most));
  EXPECT_THROW(SpatialEncoder(ItemMemory(most + 1, 32, 1), cim, most + 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pulphd::hd
