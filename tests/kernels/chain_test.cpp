#include "kernels/chain.hpp"

#include <gtest/gtest.h>

#include "emg/dataset.hpp"

namespace pulphd::kernels {
namespace {

using hd::ClassifierConfig;
using hd::HdClassifier;
using hd::Sample;
using sim::ClusterConfig;

/// Small trained model shared across tests (2048-D keeps them fast).
struct ChainFixture {
  ChainFixture() : model(make_config()) {
    // Distinct level patterns per class.
    for (std::size_t c = 0; c < 5; ++c) {
      hd::Trial trial;
      for (int i = 0; i < 8; ++i) {
        trial.push_back({level_of(c, 0), level_of(c, 1), level_of(c, 2), level_of(c, 3)});
      }
      model.train(trial, c);
    }
  }

  static ClassifierConfig make_config() {
    ClassifierConfig cfg;
    cfg.dim = 2048;
    cfg.channels = 4;
    cfg.levels = 22;
    cfg.max_value = 21.0;
    cfg.classes = 5;
    cfg.ngram = 1;
    cfg.seed = 2024;
    return cfg;
  }

  static float level_of(std::size_t c, std::size_t ch) {
    return static_cast<float>((3 * c + 5 * ch) % 21);
  }

  std::vector<Sample> window_for(std::size_t c, std::size_t n = 1) const {
    std::vector<Sample> w;
    for (std::size_t i = 0; i < n; ++i) {
      w.push_back({level_of(c, 0), level_of(c, 1), level_of(c, 2), level_of(c, 3)});
    }
    return w;
  }

  HdClassifier model;
};

class ChainOnEveryPlatform : public ::testing::TestWithParam<ClusterConfig> {};

TEST_P(ChainOnEveryPlatform, BitExactWithGoldenModel) {
  const ChainFixture fx;
  const ProcessingChain chain(GetParam(), fx.model);
  for (std::size_t c = 0; c < 5; ++c) {
    const auto window = fx.window_for(c);
    const ChainRun run = chain.classify(window);
    // The accelerated chain must produce the exact golden query and the
    // exact golden distances — "our accelerator preserves the semantic of
    // HD computing by avoiding any lossy optimization" (§1).
    const hd::Hypervector golden_query = fx.model.encode_query(window);
    EXPECT_EQ(run.query, golden_query);
    const hd::AmDecision golden = fx.model.predict_encoded(golden_query);
    EXPECT_EQ(run.decision.label, golden.label);
    EXPECT_EQ(run.decision.distances, golden.distances);
    EXPECT_EQ(run.decision.label, c);  // and it classifies correctly
  }
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, ChainOnEveryPlatform,
    ::testing::Values(ClusterConfig::pulpv3(1), ClusterConfig::pulpv3(4),
                      ClusterConfig::wolf(1, false), ClusterConfig::wolf(1, true),
                      ClusterConfig::wolf(8, true), ClusterConfig::arm_cortex_m4()),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

class ChainNgram : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainNgram, TemporalEncodingBitExact) {
  const std::size_t n = GetParam();
  ClassifierConfig cfg = ChainFixture::make_config();
  cfg.ngram = n;
  HdClassifier model(cfg);
  // Train with trials long enough for one N-gram per class.
  for (std::size_t c = 0; c < 5; ++c) {
    hd::Trial trial;
    for (std::size_t i = 0; i < n; ++i) {
      trial.push_back({ChainFixture::level_of(c, 0), ChainFixture::level_of(c, 1),
                       ChainFixture::level_of(c, 2), ChainFixture::level_of(c, 3)});
    }
    model.train(trial, c);
  }
  const ProcessingChain chain(sim::ClusterConfig::wolf(8, true), model);
  // A varying window exercises the rotation path.
  std::vector<Sample> window;
  for (std::size_t i = 0; i < n; ++i) {
    window.push_back({static_cast<float>((2 * i) % 21), static_cast<float>((3 * i) % 21),
                      static_cast<float>((5 * i) % 21), static_cast<float>((7 * i) % 21)});
  }
  const ChainRun run = chain.classify(window);
  EXPECT_EQ(run.query, model.encode_query(window));
  if (n > 1) {
    EXPECT_GT(run.cycles.temporal, 0u);
  } else {
    EXPECT_EQ(run.cycles.temporal, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, ChainNgram, ::testing::Values(1ul, 2ul, 3ul, 5ul, 10ul));

TEST(ProcessingChain, RejectsWrongWindowShape) {
  const ChainFixture fx;
  const ProcessingChain chain(ClusterConfig::pulpv3(1), fx.model);
  EXPECT_THROW((void)chain.classify(fx.window_for(0, 2)), std::invalid_argument);
  std::vector<Sample> bad{{1.0f, 2.0f}};
  EXPECT_THROW((void)chain.classify(bad), std::invalid_argument);
}

TEST(ProcessingChain, RequiresTrainedModel) {
  HdClassifier untrained(ChainFixture::make_config());
  EXPECT_THROW(ProcessingChain(ClusterConfig::pulpv3(1), untrained),
               std::invalid_argument);
}

TEST(ProcessingChain, MultiCoreIsFasterWithSameResult) {
  const ChainFixture fx;
  const ProcessingChain one(ClusterConfig::pulpv3(1), fx.model);
  const ProcessingChain four(ClusterConfig::pulpv3(4), fx.model);
  const auto w = fx.window_for(2);
  const ChainRun r1 = one.classify(w);
  const ChainRun r4 = four.classify(w);
  EXPECT_EQ(r1.query, r4.query);
  EXPECT_LT(r4.cycles.total(), r1.cycles.total());
}

TEST(ProcessingChain, DoubleBufferingHidesTransfers) {
  // §3: double buffering "improves the performance and the energy
  // efficiency of the system" — the ablation must show it.
  const ChainFixture fx;
  ChainConfig with;
  with.double_buffering = true;
  ChainConfig without;
  without.double_buffering = false;
  const ProcessingChain buffered(ClusterConfig::wolf(8, true), fx.model, with);
  const ProcessingChain serialized(ClusterConfig::wolf(8, true), fx.model, without);
  const auto w = fx.window_for(1);
  const std::uint64_t fast = buffered.classify(w).cycles.total();
  const std::uint64_t slow = serialized.classify(w).cycles.total();
  EXPECT_LT(fast, slow);
}

TEST(ProcessingChain, CortexM4ChargesNoDma) {
  const ChainFixture fx;
  const ProcessingChain chain(ClusterConfig::arm_cortex_m4(), fx.model);
  const ChainRun run = chain.classify(fx.window_for(0));
  EXPECT_EQ(run.cycles.dma_transfer_total, 0u);
  EXPECT_EQ(run.cycles.dma_exposed, 0u);
}

TEST(ProcessingChain, BreakdownSumsToTotal) {
  const ChainFixture fx;
  const ProcessingChain chain(ClusterConfig::pulpv3(4), fx.model);
  const ChainBreakdown bd = chain.classify(fx.window_for(3)).cycles;
  EXPECT_EQ(bd.total(), bd.map_encode_total() + bd.am_total());
  EXPECT_EQ(bd.map_encode_total(),
            bd.quantize + bd.bind + bd.majority + bd.temporal + bd.map_encode_overhead);
  EXPECT_EQ(bd.am_total(), bd.am_compute + bd.am_reduce + bd.am_overhead);
  EXPECT_GT(bd.majority, bd.bind);  // the majority dominates MAP+ENCODERS
}

TEST(ProcessingChain, FootprintMatchesPaperAt10000D) {
  ClassifierConfig cfg;  // paper defaults: D=10000, 4 ch, 22 levels, 5 classes
  HdClassifier model(cfg);
  hd::Trial t;
  for (int i = 0; i < 3; ++i) t.push_back({1.0f, 2.0f, 3.0f, 4.0f});
  for (std::size_t c = 0; c < 5; ++c) model.train(t, c);
  const ProcessingChain chain(ClusterConfig::pulpv3(4), model);
  const ChainFootprint fp = chain.footprint();
  EXPECT_NEAR(static_cast<double>(fp.cim_bytes) / 1024.0, 26.9, 0.3);  // "27 kB"
  EXPECT_NEAR(static_cast<double>(fp.im_bytes) / 1024.0, 4.9, 0.2);    // "5 kB"
  EXPECT_NEAR(static_cast<double>(fp.am_bytes) / 1024.0, 6.1, 0.2);    // "7 kB"
  // §3: "total memory requirements ... is around 50 kB".
  EXPECT_GT(static_cast<double>(fp.total()) / 1024.0, 40.0);
  EXPECT_LT(static_cast<double>(fp.total()) / 1024.0, 55.0);
}

TEST(ProcessingChain, FootprintGrowsLinearlyWithChannels) {
  // Fig. 5's red line.
  const auto footprint_at = [](std::size_t channels) {
    ClassifierConfig cfg = ChainFixture::make_config();
    cfg.channels = channels;
    HdClassifier model(cfg);
    hd::Trial t;
    for (int i = 0; i < 2; ++i) t.push_back(hd::Sample(channels, 3.0f));
    for (std::size_t c = 0; c < 5; ++c) model.train(t, c);
    const ProcessingChain chain(ClusterConfig::wolf(8, true), model);
    return chain.footprint();
  };
  const auto f4 = footprint_at(4);
  const auto f8 = footprint_at(8);
  const auto f16 = footprint_at(16);
  EXPECT_EQ(f8.im_bytes, 2 * f4.im_bytes);
  EXPECT_EQ(f16.im_bytes, 4 * f4.im_bytes);
  EXPECT_EQ(f8.cim_bytes, f4.cim_bytes);  // CIM is channel-independent
  EXPECT_EQ(f8.am_bytes, f4.am_bytes);
}

TEST(ProcessingChain, BalanceIsReported) {
  const ChainFixture fx;
  const ProcessingChain chain(ClusterConfig::wolf(8, true), fx.model);
  const ChainRun run = chain.classify(fx.window_for(0));
  EXPECT_GT(run.parallel_balance, 0.9);  // 64 words over 8 cores: balanced
  EXPECT_LE(run.parallel_balance, 1.0);
}

}  // namespace
}  // namespace pulphd::kernels
