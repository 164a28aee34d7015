#include "sim/cluster.hpp"

#include <gtest/gtest.h>

namespace pulphd::sim {
namespace {

TEST(ClusterConfig, PulpV3PresetMatchesPaper) {
  const ClusterConfig cfg = ClusterConfig::pulpv3(4);
  EXPECT_EQ(cfg.cores, 4u);
  EXPECT_EQ(cfg.core, CoreKind::kPulpV3Or1k);
  EXPECT_EQ(cfg.l1_bytes, 48u * 1024u);  // §2.2: 48 kB TCDM
  EXPECT_EQ(cfg.l2_bytes, 64u * 1024u);  // §2.2: 64 kB L2
  ASSERT_TRUE(cfg.dma.has_value());
  EXPECT_EQ(cfg.dma->bytes_per_cycle, 8u);  // 64-bit AXI4: 32 Gbit/s @ 500 MHz
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfig, PulpV3CoreCountBounds) {
  EXPECT_NO_THROW(ClusterConfig::pulpv3(1));
  EXPECT_NO_THROW(ClusterConfig::pulpv3(4));
  EXPECT_THROW(ClusterConfig::pulpv3(0), std::invalid_argument);
  EXPECT_THROW(ClusterConfig::pulpv3(5), std::invalid_argument);
}

TEST(ClusterConfig, WolfPresetMatchesPaper) {
  const ClusterConfig cfg = ClusterConfig::wolf(8, true);
  EXPECT_EQ(cfg.cores, 8u);  // §5.1: up to 8 processors
  EXPECT_EQ(cfg.core, CoreKind::kWolfRv32Builtin);
  const ClusterConfig plain = ClusterConfig::wolf(8, false);
  EXPECT_EQ(plain.core, CoreKind::kWolfRv32);
  EXPECT_THROW(ClusterConfig::wolf(9, true), std::invalid_argument);
}

TEST(ClusterConfig, WolfSynchronizationCheaperThanPulpV3) {
  // §5.1: "hardware synchronization mechanism which allows to significantly
  // reduce the programming overheads of the OpenMP runtime".
  EXPECT_LT(ClusterConfig::wolf(8, true).fork_join_cycles,
            ClusterConfig::pulpv3(4).fork_join_cycles);
  EXPECT_LT(ClusterConfig::wolf(8, true).barrier_cycles,
            ClusterConfig::pulpv3(4).barrier_cycles);
}

TEST(ClusterConfig, ArmM4IsSingleCoreWithoutRuntime) {
  const ClusterConfig cfg = ClusterConfig::arm_cortex_m4();
  EXPECT_EQ(cfg.cores, 1u);
  EXPECT_EQ(cfg.fork_join_cycles, 0u);
  EXPECT_DOUBLE_EQ(cfg.l1_contention(), 1.0);
}

TEST(ClusterConfig, ContentionGrowsWithCores) {
  EXPECT_DOUBLE_EQ(ClusterConfig::pulpv3(1).l1_contention(), 1.0);
  const double c4 = ClusterConfig::pulpv3(4).l1_contention();
  EXPECT_GT(c4, 1.0);
  EXPECT_LT(c4, 1.2);  // mild: the TCDM is banked precisely to avoid stalls
  const double w8 = ClusterConfig::wolf(8, true).l1_contention();
  EXPECT_GT(w8, 1.0);
  EXPECT_LT(w8, 1.2);
}

TEST(ClusterConfig, ValidationCatchesNonsense) {
  ClusterConfig cfg = ClusterConfig::pulpv3(2);
  cfg.tcdm_banks = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ClusterConfig::pulpv3(2);
  cfg.dma->bytes_per_cycle = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ClusterConfig::pulpv3(2);
  cfg.l1_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, NamesAreDescriptive) {
  EXPECT_EQ(ClusterConfig::pulpv3(1).name, "PULPv3 1 core");
  EXPECT_EQ(ClusterConfig::pulpv3(4).name, "PULPv3 4 cores");
  EXPECT_EQ(ClusterConfig::wolf(8, true).name, "Wolf 8 cores built-in");
  EXPECT_EQ(ClusterConfig::wolf(1, false).name, "Wolf 1 core");
}

}  // namespace
}  // namespace pulphd::sim
