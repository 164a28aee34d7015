// Bit-sliced (vertical-counter) majority — a word-parallel alternative to
// the paper's per-bit Fig. 2 sequence, included as a beyond-the-paper
// optimization study (bench_ablation_bitsliced).
//
// Instead of extracting one bit at a time, keep a vertical counter of
// ceil(log2(n+1)) bit-planes per 32-component column; each operand is added
// with a ripple of half-adders (AND + XOR per plane), and the final
// count > n/2 comparison is evaluated bitwise MSB-first. The whole word is
// processed with plain logic ops — no p.extractu/p.insert needed — so it
// runs at word rather than bit granularity on *any* core, at the price of
// `planes` live registers.
//
// This header holds the simulated-cluster kernel only. The host runs the
// same vertical counters in kernels::majority_words (hd::majority) and in
// the dispatched Backend kernels: encode_samples for the spatial majority,
// and count_rows plus blocks_to_majority for hd::StreamingEncoder's
// hop-block bundling.
#pragma once

#include <cstddef>
#include <span>

#include "common/bitops.hpp"
#include "sim/core.hpp"

namespace pulphd::kernels {

/// Componentwise majority of an odd number of packed rows over [begin, end),
/// charged as the bit-sliced instruction sequence. Bit-exact with
/// majority_range_generic / hd::majority.
void majority_range_bitsliced(sim::CoreContext& ctx,
                              std::span<const std::span<const Word>> rows,
                              std::span<Word> out, std::size_t begin, std::size_t end);

}  // namespace pulphd::kernels
