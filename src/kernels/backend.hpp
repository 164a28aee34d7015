// Runtime-dispatched kernel backends for the host-side HD hot paths.
//
// The paper's central observation is that HD inference reduces to wide
// bitwise operations — XOR binding, componentwise majority, XOR-popcount
// Hamming distance — that scale with the datapath width. The host library
// mirrors that: every bulk word kernel goes through a `Backend` descriptor
// whose function pointers are bound once per process to the widest SIMD
// implementation the CPU supports:
//
//  * portable — 64-bit SWAR over two 32-bit words at a time; always
//    compiled, always supported, and the bit-exact reference the SIMD
//    backends are tested against.
//  * avx2     — 256-bit lanes: `vpxor` binding and a `vpshufb` nibble-LUT
//    popcount accumulated through `vpsadbw` (x86-64 with AVX2).
//  * neon     — 128-bit lanes: `veorq` binding and `vcntq_u8` byte popcount
//    with pairwise-widening accumulation (AArch64 / ARM with NEON).
//
// The AM search has no kernel of its own: hd::hamming_to_all calls
// `hamming_words` once per prototype row, and AssociativeMemory::classify
// and classify_batch both run that one per-query body. Temporal bundling
// has two: hd::StreamingEncoder adds each N-gram once into the bit-sliced
// counter of its hop block (`add_to_counter`, a fixed-length ripple with no
// data-dependent branch) and reads each window out as the full-adder sum of
// its blocks, thresholded in the same pass (`blocks_to_majority`).
//
// Selection happens lazily on first use: the `PULPHD_BACKEND` environment
// variable (`portable`, `avx2` or `neon`) overrides; otherwise the widest
// backend whose instructions the CPU reports is chosen. All backends are
// bit-identical for every dimension, tail shape, batch size and thread
// count — parallel shards and SIMD lanes only ever reorder independent
// exact integer work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/bitops.hpp"

namespace pulphd::kernels {

/// One kernel backend: a name, its datapath width, and the bulk word
/// kernels every hot path routes through. All functions are stateless and
/// thread-safe; callers guarantee in/out ranges are valid and (for
/// `threshold_words`) that `out` does not alias any input row.
struct Backend {
  const char* name;      ///< "portable" | "avx2" | "neon"
  unsigned vector_bits;  ///< effective datapath width (64 / 256 / 128)

  /// True when the host CPU can execute this backend's instructions.
  bool (*supported)() noexcept;

  /// popcount(a XOR b) over n words — the Hamming distance between the
  /// hypervectors the ranges encode (padding bits zero on both sides).
  std::uint64_t (*hamming_words)(const Word* a, const Word* b, std::size_t n) noexcept;

  /// Bulk binding: out[w] = a[w] ^ b[w] for n words. In-place use (out
  /// aliasing a and/or b exactly) is allowed; partial overlap is not.
  void (*xor_words)(const Word* a, const Word* b, Word* out, std::size_t n) noexcept;

  /// Bulk thresholded bundling: bit b of out[w] is set iff more than
  /// `threshold` of the `num_rows` input rows have bit b of word w set.
  /// With threshold = num_rows / 2 and an odd row count this is the exact
  /// componentwise majority of hd::majority. num_rows must be >= 1.
  void (*threshold_words)(const Word* const* rows, std::size_t num_rows,
                          std::size_t threshold, Word* out, std::size_t n) noexcept;

  /// Hop-block bundling, add half: adds one packed binary row into a
  /// bit-sliced block counter — `num_planes` planes of n words each,
  /// plane-major (plane p spans planes[p*n, p*n + n)), plane 0 the LSB —
  /// with a half-adder ripple through every plane and no early exit. The
  /// add is exact: the caller sizes num_planes so no column count exceeds
  /// 2^num_planes - 1.
  void (*add_to_counter)(const Word* row, Word* planes, unsigned num_planes,
                         std::size_t n) noexcept;

  /// Hop-block bundling, readout half: `num_blocks` >= 1 block counters of
  /// `block_planes` >= 1 planes each, stored back to back (block b's plane
  /// p spans blocks[(b*block_planes + p)*n, ... + n)). Bit b of out[w] is set
  /// iff the column's count summed over every block exceeds `threshold`,
  /// or equals it and `tie_break` (nullable) has the bit set. The blocks
  /// are summed with bit-sliced full adders and compared in the same pass.
  /// With threshold = adds/2 this matches hd::BundleAccumulator::finalize
  /// over the blocks' rows exactly: strict majority wins, exact ties
  /// (possible only for an even add count — pass tie_break then, and
  /// nullptr for odd counts) take the tie-break component.
  void (*blocks_to_majority)(const Word* blocks, std::size_t num_blocks,
                             unsigned block_planes, std::size_t threshold,
                             const Word* tie_break, Word* out, std::size_t n) noexcept;
};

/// The always-compiled 64-bit SWAR fallback (and bit-exact reference).
const Backend& portable_backend() noexcept;

/// Every backend compiled into this binary, portable first. Compiled does
/// not imply runnable — check `b->supported()` before forcing one.
std::span<const Backend* const> compiled_backends() noexcept;

/// Lookup among compiled backends by name; nullptr when not compiled in.
const Backend* find_backend(std::string_view name) noexcept;

/// Resolves an explicit backend request (the value of `PULPHD_BACKEND`).
/// Throws std::runtime_error with a message naming the valid choices when
/// the name is unknown, not compiled into this binary, or not supported by
/// the host CPU.
const Backend& resolve_backend_choice(std::string_view name);

/// The process-wide active backend. The first call selects it: an explicit
/// `PULPHD_BACKEND` value wins (resolved via resolve_backend_choice, so a
/// bad value throws), otherwise the widest supported compiled backend.
/// Subsequent calls return the cached choice.
const Backend& active_backend();

/// Test/bench hook: forces the active backend, or with nullptr drops the
/// cached selection so the next active_backend() call re-reads the
/// environment. Not intended for concurrent use with hot-path callers.
void force_backend(const Backend* backend) noexcept;

/// RAII form of force_backend: forces `backend` for its lifetime and
/// restores the previously active selection on destruction (the guard
/// tests and benches use to compare backends).
class ScopedBackend {
 public:
  explicit ScopedBackend(const Backend* backend) : previous_(&active_backend()) {
    force_backend(backend);
  }
  ~ScopedBackend() { force_backend(previous_); }

  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const Backend* previous_;
};

}  // namespace pulphd::kernels
