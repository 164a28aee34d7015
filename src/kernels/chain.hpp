// The accelerated HD processing chain (Fig. 1) on a simulated cluster.
//
// A ProcessingChain owns nothing but references: it runs the trained golden
// model's matrices (IM / CIM / AM) through the paper's three kernels —
//
//   1. mapping + spatial encoder  — CIM quantization, channel binding
//      (XOR), componentwise majority (generic or built-in variant);
//   2. temporal encoder           — (N-1) rotate-and-XOR accumulation steps;
//   3. associative memory         — Hamming distances to every prototype,
//      data-parallel over word slices with a final cross-core reduction
//
// — on the configured cluster, charging cycles per the ISA cost tables,
// overlapping L2->L1 DMA with compute via double buffering, and paying the
// OpenMP-style fork/join and barrier overheads. Every kernel is one
// parallel region, matching the paper's OpenMP structure.
//
// Functional outputs are bit-exact with hd::HdClassifier (tested).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/classifier.hpp"
#include "sim/cluster.hpp"
#include "sim/runtime.hpp"

namespace pulphd::kernels {

struct ChainConfig {
  /// Overlap DMA transfers with compute (ping/pong buffers in L1). Turning
  /// this off serializes transfer-then-compute — the membuf ablation.
  bool double_buffering = true;
};

/// Cycle breakdown of one classification, split as in Table 3.
struct ChainBreakdown {
  // MAP + ENCODERS kernel.
  std::uint64_t quantize = 0;
  std::uint64_t bind = 0;
  std::uint64_t majority = 0;
  std::uint64_t temporal = 0;
  std::uint64_t map_encode_overhead = 0;  ///< fork/join + barriers + exposed DMA
  // AM kernel.
  std::uint64_t am_compute = 0;
  std::uint64_t am_reduce = 0;
  std::uint64_t am_overhead = 0;          ///< fork/join + barrier + exposed DMA

  // DMA statistics (across both kernels).
  std::uint64_t dma_transfer_total = 0;   ///< all cycles the DMA was busy
  std::uint64_t dma_exposed = 0;          ///< the part not hidden by compute

  std::uint64_t map_encode_total() const noexcept {
    return quantize + bind + majority + temporal + map_encode_overhead;
  }
  std::uint64_t am_total() const noexcept { return am_compute + am_reduce + am_overhead; }
  std::uint64_t total() const noexcept { return map_encode_total() + am_total(); }
};

/// Result of classifying one window of N samples.
struct ChainRun {
  hd::AmDecision decision;
  hd::Hypervector query;            ///< the N-gram query hypervector
  ChainBreakdown cycles;
  double parallel_balance = 1.0;    ///< min over regions of work balance
};

/// Memory footprint of the chain's matrices and L1 working buffers — the
/// red line of Fig. 5.
struct ChainFootprint {
  std::size_t im_bytes = 0;
  std::size_t cim_bytes = 0;
  std::size_t am_bytes = 0;
  std::size_t l1_buffers_bytes = 0;  ///< bound HVs + spatial + N-gram ping/pong
  std::size_t total() const noexcept {
    return im_bytes + cim_bytes + am_bytes + l1_buffers_bytes;
  }
};

class ProcessingChain {
 public:
  /// The cluster description is copied; `model` must outlive the chain.
  ProcessingChain(sim::ClusterConfig cluster, const hd::HdClassifier& model,
                  ChainConfig config = {});

  const sim::ClusterConfig& cluster() const noexcept { return cluster_; }
  const hd::HdClassifier& model() const noexcept { return *model_; }
  const ChainConfig& config() const noexcept { return config_; }

  /// Classifies one window of exactly N = model.config().ngram samples
  /// (each sample holding one value per channel).
  ChainRun classify(std::span<const hd::Sample> window) const;

  ChainFootprint footprint() const noexcept;

 private:
  sim::ClusterConfig cluster_;
  const hd::HdClassifier* model_;
  ChainConfig config_;
};

}  // namespace pulphd::kernels
