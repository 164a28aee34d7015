// Packed batch spatial encoding: SpatialEncoder::encode_batch must be
// bit-identical to the per-sample encode path for every channel parity,
// dimension tail shape, batch size and thread count — and the classifier's
// end-to-end decisions must be identical across every compiled backend.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {
namespace {

std::vector<std::vector<float>> random_samples(std::size_t count, std::size_t channels,
                                               Xoshiro256StarStar& rng) {
  std::vector<std::vector<float>> samples(count, std::vector<float>(channels));
  for (auto& sample : samples) {
    for (auto& v : sample) {
      v = static_cast<float>(rng.next() % 2100u) / 100.0f;  // the CIM's 0..21 range
    }
  }
  return samples;
}

TEST(SpatialEncoderBatch, MatchesSerialEncodeAcrossShapes) {
  Xoshiro256StarStar rng(0xe4c0de);
  const std::size_t kChannels[] = {1, 3, 4, 8};  // odd and even (tie-break) parities
  const std::size_t kDims[] = {64, 65, 2048, 10016};
  const std::size_t kBatches[] = {0, 1, 3, 129};
  for (const std::size_t channels : kChannels) {
    for (const std::size_t dim : kDims) {
      const ItemMemory im(channels, dim, 11);
      const ContinuousItemMemory cim(22, dim, 0.0, 21.0, 12);
      const SpatialEncoder enc(im, cim, channels);
      for (const std::size_t batch : kBatches) {
        const auto samples = random_samples(batch, channels, rng);
        std::vector<Hypervector> out(batch, Hypervector(dim));
        enc.encode_batch(samples, out);
        for (std::size_t s = 0; s < batch; ++s) {
          EXPECT_EQ(out[s], enc.encode(samples[s]))
              << "channels " << channels << " dim " << dim << " sample " << s;
        }
      }
    }
  }
}

TEST(SpatialEncoderBatch, MatchesMajorityOfBoundChannels) {
  // The packed path must agree with the documented semantics, not just the
  // serial encode: majority over bind_channels (tie-break row included).
  Xoshiro256StarStar rng(0x5eed);
  const ItemMemory im(4, 2048, 1);
  const ContinuousItemMemory cim(22, 2048, 0.0, 21.0, 2);
  const SpatialEncoder enc(im, cim, 4);
  const auto samples = random_samples(5, 4, rng);
  std::vector<Hypervector> out(samples.size(), Hypervector(2048));
  enc.encode_batch(samples, out);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    EXPECT_EQ(out[s], majority(enc.bind_channels(samples[s])));
  }
}

// Sample values on the quantizer's edges for a CIM over [0, 21]: every
// half-level point as a float and one float ulp either side of it, the
// endpoints, and values below and above the range.
std::vector<float> edge_values(std::size_t levels) {
  std::vector<float> values = {0.0f, 21.0f, -1.0f, -1e30f, 21.5f, 1e30f};
  const double step = 21.0 / static_cast<double>(levels - 1);
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    const auto half = static_cast<float>((static_cast<double>(l) + 0.5) * step);
    values.push_back(std::nextafter(half, -HUGE_VALF));
    values.push_back(half);
    values.push_back(std::nextafter(half, HUGE_VALF));
  }
  return values;
}

TEST(SpatialEncoderBatch, TableEncodeMatchesMajorityOfBoundChannelsOnEdges) {
  // encode and encode_batch read the bound-row table; bind_channels binds
  // the memories directly, so this pins the table against its definition.
  const std::size_t kChannels[] = {1, 2, 3, 4, 31, 32, 33};
  const std::size_t kDims[] = {8, 256, 10000};
  const std::size_t levels = 22;
  const std::vector<float> values = edge_values(levels);
  for (const std::size_t channels : kChannels) {
    for (const std::size_t dim : kDims) {
      const ItemMemory im(channels, dim, 21);
      const ContinuousItemMemory cim(levels, dim, 0.0, 21.0, 22);
      const SpatialEncoder enc(im, cim, channels);
      // Enough samples that every channel sees every edge value.
      std::vector<std::vector<float>> samples(values.size() + 1, std::vector<float>(channels));
      for (std::size_t s = 0; s < samples.size(); ++s) {
        for (std::size_t c = 0; c < channels; ++c) {
          samples[s][c] = values[(s + c * 7) % values.size()];
        }
      }
      std::vector<Hypervector> out(samples.size(), Hypervector(dim));
      enc.encode_batch(samples, out);
      for (std::size_t s = 0; s < samples.size(); ++s) {
        const Hypervector expected = majority(enc.bind_channels(samples[s]));
        ASSERT_EQ(enc.encode(samples[s]), expected)
            << "channels " << channels << " dim " << dim << " sample " << s;
        ASSERT_EQ(out[s], expected)
            << "channels " << channels << " dim " << dim << " sample " << s;
      }
    }
  }
}

TEST(SpatialEncoderBatch, NanSampleThrows) {
  const ItemMemory im(4, 256, 1);
  const ContinuousItemMemory cim(22, 256, 0.0, 21.0, 2);
  const SpatialEncoder enc(im, cim, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    std::vector<float> sample(4, 3.0f);
    sample[c] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(enc.encode(sample), std::invalid_argument) << "channel " << c;
    const std::vector<std::vector<float>> samples = {std::vector<float>(4, 1.0f), sample};
    std::vector<Hypervector> out(2, Hypervector(256));
    EXPECT_THROW(enc.encode_batch(samples, out), std::invalid_argument) << "channel " << c;
  }
}

TEST(SpatialEncoderBatch, ValidatesShapes) {
  const ItemMemory im(4, 256, 1);
  const ContinuousItemMemory cim(22, 256, 0.0, 21.0, 2);
  const SpatialEncoder enc(im, cim, 4);
  const std::vector<std::vector<float>> samples(3, std::vector<float>(4, 1.0f));
  std::vector<Hypervector> short_out(2, Hypervector(256));
  EXPECT_THROW(enc.encode_batch(samples, short_out), std::invalid_argument);
  std::vector<Hypervector> wrong_dim(3, Hypervector(128));
  EXPECT_THROW(enc.encode_batch(samples, wrong_dim), std::invalid_argument);
  const std::vector<std::vector<float>> narrow(3, std::vector<float>(3, 1.0f));
  std::vector<Hypervector> out(3, Hypervector(256));
  EXPECT_THROW(enc.encode_batch(narrow, out), std::invalid_argument);
}

ClassifierConfig small_config() {
  ClassifierConfig cfg;
  cfg.dim = 2048;
  cfg.channels = 4;
  cfg.classes = 3;
  return cfg;
}

std::vector<Trial> random_trials(std::size_t count, const ClassifierConfig& cfg,
                                 Xoshiro256StarStar& rng) {
  std::vector<Trial> trials(count);
  for (auto& trial : trials) trial = random_samples(12, cfg.channels, rng);
  return trials;
}

TEST(EncodeTrialsPacked, BitIdenticalAcrossThreadCounts) {
  Xoshiro256StarStar rng(0x7717);
  ClassifierConfig cfg = small_config();
  HdClassifier clf(cfg);
  const auto trials = random_trials(9, cfg, rng);
  clf.set_threads(1);
  const std::vector<Hypervector> serial = clf.encode_trials(trials);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    clf.set_threads(threads);
    EXPECT_EQ(clf.encode_trials(trials), serial) << "threads " << threads;
  }
}

TEST(EncodeTrialsPacked, MatchesPerTrialEncodeQuery) {
  Xoshiro256StarStar rng(0x7718);
  const ClassifierConfig cfg = small_config();
  HdClassifier clf(cfg);
  const auto trials = random_trials(5, cfg, rng);
  const std::vector<Hypervector> batch = clf.encode_trials(trials);
  ASSERT_EQ(batch.size(), trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    EXPECT_EQ(batch[t], clf.encode_query(trials[t])) << "trial " << t;
  }
}

TEST(BackendEndToEnd, ClassifierDecisionsIdenticalAcrossBackends) {
  Xoshiro256StarStar rng(0x7719);
  const ClassifierConfig cfg = small_config();
  const auto trials = random_trials(8, cfg, rng);

  auto run_with = [&](const kernels::Backend* backend) {
    const kernels::ScopedBackend forced(backend);
    HdClassifier clf(cfg);
    for (std::size_t t = 0; t < trials.size(); ++t) {
      clf.train(trials[t], t % cfg.classes);
    }
    return clf.predict_batch(trials);
  };

  const auto reference = run_with(&kernels::portable_backend());
  for (const kernels::Backend* backend : kernels::compiled_backends()) {
    if (!backend->supported()) continue;
    const auto decisions = run_with(backend);
    ASSERT_EQ(decisions.size(), reference.size()) << backend->name;
    for (std::size_t t = 0; t < decisions.size(); ++t) {
      EXPECT_EQ(decisions[t].label, reference[t].label) << backend->name << " trial " << t;
      EXPECT_EQ(decisions[t].distances, reference[t].distances)
          << backend->name << " trial " << t;
    }
  }
}

}  // namespace
}  // namespace pulphd::hd
