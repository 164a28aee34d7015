// Low-level HD kernels as executed on the simulated cluster, and only those:
// the host hot paths go through the runtime-dispatched word kernels of
// kernels/backend.hpp instead.
//
// Each function processes a word range [begin, end) of packed hypervectors,
// computing the real result into `out` while charging every primitive
// operation of its instruction sequence to the CoreContext. Two majority
// implementations exist:
//
//  * generic  — the portable ANSI-C bit-serial majority: an inner loop over
//    the bound hypervectors extracts bit b of each with shift+mask and
//    accumulates a sum, then compares against half and sets the result bit.
//    This is what runs on PULPv3, on Wolf without built-ins, and on the
//    Cortex-M4 (where the barrel shifter folds the shift into the mask).
//
//  * builtin  — Fig. 2's XpulpV2 sequence: p.extractu pulls bit b out of
//    each bound word, p.insert packs the bits into a scratch word, p.cnt
//    popcounts it, and p.insert writes the majority bit into the result.
//
// Both produce bit-identical results to hd::majority (verified in tests).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "hd/item_memory.hpp"
#include "sim/core.hpp"

namespace pulphd::kernels {

using pulphd::Word;

/// out[w] = a[w] ^ b[w] for w in [begin, end) — the channel binding step.
void bind_range(sim::CoreContext& ctx, std::span<const Word> a, std::span<const Word> b,
                std::span<Word> out, std::size_t begin, std::size_t end);

/// Componentwise majority of an odd number of packed rows over a word range.
/// Dispatches to the builtin path when the core has both bit-field and
/// popcount support, else the generic path; `majority_range_generic` /
/// `majority_range_builtin` are exposed for ablation benches.
void majority_range(sim::CoreContext& ctx, std::span<const std::span<const Word>> rows,
                    std::span<Word> out, std::size_t begin, std::size_t end);

void majority_range_generic(sim::CoreContext& ctx,
                            std::span<const std::span<const Word>> rows, std::span<Word> out,
                            std::size_t begin, std::size_t end);

void majority_range_builtin(sim::CoreContext& ctx,
                            std::span<const std::span<const Word>> rows, std::span<Word> out,
                            std::size_t begin, std::size_t end);

/// One temporal-encoder accumulation step over a word range:
///   out[w] = rot1(acc)[w] ^ spatial[w]
/// where rot1 moves every component one position up, wrapping component
/// dim-1 to position 0. `dim` is the logical component count; ranges may be
/// computed per-core since out, acc and spatial are distinct buffers.
void rotate1_xor_range(sim::CoreContext& ctx, std::size_t dim, std::span<const Word> acc,
                       std::span<const Word> spatial, std::span<Word> out, std::size_t begin,
                       std::size_t end);

/// Partial Hamming distances over a word range: for each prototype row,
/// adds popcount(query[w] ^ row[w]) for w in [begin, end) into
/// partial[row]. partial must be zero-initialized by the caller.
void hamming_partial_range(sim::CoreContext& ctx, std::span<const Word> query,
                           std::span<const std::span<const Word>> prototypes,
                           std::span<std::uint64_t> partial, std::size_t begin,
                           std::size_t end);

/// CIM quantization of one channel sample (the "simple quantization step" of
/// §3): charges the handful of float ops and returns cim.quantize(value).
std::size_t quantize_value(sim::CoreContext& ctx, const hd::ContinuousItemMemory& cim,
                           float value);

}  // namespace pulphd::kernels
