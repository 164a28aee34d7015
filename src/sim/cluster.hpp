// Cluster configuration: the machine a workload runs on.
//
// Captures the platform parameters the paper varies — core kind and count,
// L1/L2 sizes, TCDM banking, DMA bandwidth and the parallel-runtime
// overheads (software OpenMP on PULPv3 vs the Wolf hardware synchronizer).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/dma.hpp"
#include "sim/isa.hpp"

namespace pulphd::sim {

struct ClusterConfig {
  std::string name;
  CoreKind core = CoreKind::kPulpV3Or1k;
  std::uint32_t cores = 1;

  std::uint64_t l1_bytes = 48 * 1024;  ///< TCDM (PULPv3: 48 kB, Wolf: 64 kB)
  std::uint64_t l2_bytes = 64 * 1024;  ///< off-cluster L2
  std::uint32_t tcdm_banks = 8;        ///< interleaved single-ported banks

  /// L2->L1 staging engine; empty on a platform that computes straight
  /// from flat memory, whose chain then charges no DMA.
  std::optional<DmaModel> dma = DmaModel{};

  /// Cycles to open + close one parallel region (thread wake-up, pointer
  /// marshalling, final barrier). PULPv3's bare-metal software OpenMP pays
  /// on the order of a thousand cycles; Wolf's event unit reduces this by
  /// roughly an order of magnitude (§5.1: "an hardware synchronization
  /// mechanism which allows to significantly reduce the programming
  /// overheads of the OpenMP runtime").
  std::uint32_t fork_join_cycles = 1000;
  /// Cycles per intra-region barrier.
  std::uint32_t barrier_cycles = 200;

  /// Average multi-core stall factor on L1 accesses from banking conflicts.
  /// Random-ish interleaved traffic across B banks from n requesters loses
  /// roughly kConflictBeta * (n - 1) / B of a cycle per access.
  double l1_contention() const noexcept {
    constexpr double kConflictBeta = 0.25;
    if (cores <= 1) return 1.0;
    return 1.0 + kConflictBeta * static_cast<double>(cores - 1) /
                     static_cast<double>(tcdm_banks);
  }

  const IsaCostTable& isa() const noexcept { return isa_costs(core); }

  /// Throws std::invalid_argument when inconsistent (0 cores, 0 banks...).
  void validate() const;

  // -- presets matching the paper's platforms -------------------------------

  /// PULPv3 [26]: up to 4 OpenRISC cores, 48 kB TCDM / 64 kB L2,
  /// software OpenMP runtime.
  static ClusterConfig pulpv3(std::uint32_t cores);

  /// Wolf [5, 6]: up to 8 RISC-V cores, 64 kB TCDM / 512 kB L2, hardware
  /// synchronizer; `with_builtins` selects the XpulpV2 code path.
  static ClusterConfig wolf(std::uint32_t cores, bool with_builtins);

  /// Single-core ARM Cortex-M4 (STM32F407 reference board); the "cluster"
  /// degenerates to one core with flat SRAM and no DMA staging.
  static ClusterConfig arm_cortex_m4();
};

}  // namespace pulphd::sim
