#include "sim/cluster.hpp"

#include "common/status.hpp"

namespace pulphd::sim {

void ClusterConfig::validate() const {
  require(cores >= 1, "ClusterConfig: cores must be >= 1");
  require(tcdm_banks >= 1, "ClusterConfig: tcdm_banks must be >= 1");
  require(l1_bytes > 0 && l2_bytes > 0, "ClusterConfig: memory sizes must be positive");
  require(!dma || dma->bytes_per_cycle >= 1, "ClusterConfig: DMA bandwidth must be >= 1 B/cycle");
}

ClusterConfig ClusterConfig::pulpv3(std::uint32_t core_count) {
  require(core_count >= 1 && core_count <= 4, "PULPv3 cluster has 1..4 cores");
  ClusterConfig cfg;
  cfg.name = "PULPv3 " + std::to_string(core_count) + (core_count == 1 ? " core" : " cores");
  cfg.core = CoreKind::kPulpV3Or1k;
  cfg.cores = core_count;
  cfg.l1_bytes = 48 * 1024;
  cfg.l2_bytes = 64 * 1024;
  cfg.tcdm_banks = 8;
  cfg.dma = DmaModel{.startup_cycles = 30, .bytes_per_cycle = 8};
  cfg.fork_join_cycles = 2000;  // software OpenMP on bare metal
  cfg.barrier_cycles = 250;
  return cfg;
}

ClusterConfig ClusterConfig::wolf(std::uint32_t core_count, bool with_builtins) {
  require(core_count >= 1 && core_count <= 8, "Wolf cluster has 1..8 cores");
  ClusterConfig cfg;
  cfg.name = "Wolf " + std::to_string(core_count) + (core_count == 1 ? " core" : " cores") +
             (with_builtins ? " built-in" : "");
  cfg.core = with_builtins ? CoreKind::kWolfRv32Builtin : CoreKind::kWolfRv32;
  cfg.cores = core_count;
  cfg.l1_bytes = 64 * 1024;
  cfg.l2_bytes = 512 * 1024;
  cfg.tcdm_banks = 16;
  cfg.dma = DmaModel{.startup_cycles = 20, .bytes_per_cycle = 8};
  cfg.fork_join_cycles = 1200;  // event-unit fork/join + loop bookkeeping
  cfg.barrier_cycles = 60;
  return cfg;
}

ClusterConfig ClusterConfig::arm_cortex_m4() {
  ClusterConfig cfg;
  cfg.name = "ARM Cortex-M4";
  cfg.core = CoreKind::kArmCortexM4;
  cfg.cores = 1;
  cfg.l1_bytes = 128 * 1024;  // on-chip SRAM; flat address space
  cfg.l2_bytes = 1024 * 1024; // flash; models are resident, no staging
  cfg.tcdm_banks = 1;
  cfg.dma = std::nullopt;
  cfg.fork_join_cycles = 0;  // single-core: no parallel runtime
  cfg.barrier_cycles = 0;
  return cfg;
}

}  // namespace pulphd::sim
