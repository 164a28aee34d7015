// Runtime-dispatched kernel backends for the host-side HD hot paths.
//
// The paper's central observation is that HD inference reduces to wide
// bitwise operations — XOR binding, componentwise majority, XOR-popcount
// Hamming distance — that scale with the datapath width. The host library
// mirrors that for the kernels a served request runs: each goes through a
// `Backend` descriptor whose function pointers are bound once per process
// to the widest SIMD implementation the CPU supports:
//
//  * portable — 64-bit SWAR over two 32-bit words at a time; always
//    compiled, always supported, and the bit-exact reference the AVX2
//    backend is tested against. Every non-x86 host runs it.
//  * avx2     — 256-bit lanes: a `vpshufb` nibble-LUT popcount accumulated
//    through `vpsadbw`, and bit-sliced counters in registers (x86-64 with
//    AVX2). Shapes no served workload reaches call the portable kernel.
//
// The AM search has no kernel of its own: hd::hamming_to_all calls
// `hamming_words` once per prototype row, and AssociativeMemory::classify
// and classify_batch both run that one per-query body. Temporal bundling
// has two: hd::StreamingEncoder counts the N-grams of a spatial chunk that
// fall into one hop block into that block's bit-sliced counter in one call
// (`count_rows`: the counter lives in registers and each plane is stored
// once, from zero or onto the counts of a block begun by an earlier chunk),
// and reads each window out as the full-adder sum of its blocks,
// thresholded in the same pass (`blocks_to_majority`).
//
// The spatial encoder has one, `encode_samples`, called once per chunk of
// samples: it quantizes each sample's channels against the
// hd::ContinuousItemMemory::thresholds (a compare-and-count with no divide
// or branch), turns every level into the offset of its bound row in
// hd::SpatialEncoder's channel-major table and bundles those rows in place,
// counted as kernels::majority_words counts them, with no row pointer array
// in between. Both backends fold §5.1's tie row of an even channel count
// into the count: r0 + r1 + (r0 ^ r1) == 2 * (r0 | r1).
//
// The N-gram step has one, `ngram_rows`, also called once per chunk: it
// runs the sliding recurrence G <- rho^{-1}(G ^ S_old) ^ rho^{n-1}(S_new)
// over the chunk's spatial rows and writes the grams they complete, the
// previous gram and the n-deep window carried from one call to the next in
// an NgramWindow. The AVX2 kernel keeps the gram of a D = 256 stream in one
// register across the chunk.
//
// What no request runs is not dispatched: binding two hypervectors
// (Hypervector::operator^= and the bound-table build at model load) is a
// plain word loop, and hd::majority runs kernels::majority_words, the
// portable bit-sliced majority.
//
// Selection happens lazily on first use: the `PULPHD_BACKEND` environment
// variable (`portable` or `avx2`) overrides; otherwise the widest
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

/// The most channels Backend::encode_samples takes: a sample's row offsets
/// live on the kernel's stack.
inline constexpr std::size_t kMaxEncodeChannels = 4096;

/// The stream state of the sliding N-gram recurrence that
/// Backend::ngram_rows carries from one call to the next, for N-gram depth
/// n >= 2 over rows of words_for_dim(dim) words.
struct NgramWindow {
  /// n rows: slot (head + i) % n holds the i-th oldest of the last n
  /// spatial rows, all-zero rows standing in for those before the stream's
  /// first.
  Word* ring = nullptr;
  std::size_t n = 0;
  std::size_t head = 0;
  std::size_t fill = 0;        ///< rows pushed since the ring was zeroed, at most n
  const Word* prev = nullptr;  ///< the last gram written; read only when fill > 0
};

/// Bulk bundling, the componentwise majority of hd::majority_with_tiebreak,
/// not dispatched (the portable body, which the spatial encode's counts
/// match): bit b of out[w] is set iff more than half of the counted rows
/// have bit b of word w set. The counted rows are the `num_rows` >= 1 input
/// rows and, when num_rows is even, §5.1's tie row rows[0] ^ rows[1], formed
/// word by word inside the kernel — so the count is always odd and never
/// ties, and the threshold is num_rows / 2 either way. `out` must not alias
/// any input row.
void majority_words(const Word* const* rows, std::size_t num_rows, Word* out,
                    std::size_t n) noexcept;

/// One kernel backend: a name, its datapath width, and the bulk word
/// kernels every hot path routes through. All functions are stateless and
/// thread-safe; callers guarantee in/out ranges are valid.
struct Backend {
  const char* name;      ///< "portable" | "avx2"
  unsigned vector_bits;  ///< effective datapath width (64 / 256)

  /// True when the host CPU can execute this backend's instructions.
  bool (*supported)() noexcept;

  /// popcount(a XOR b) over n words — the Hamming distance between the
  /// hypervectors the ranges encode (padding bits zero on both sides).
  std::uint64_t (*hamming_words)(const Word* a, const Word* b, std::size_t n) noexcept;

  /// Hop-block bundling, count half: counts the `num_rows` >= 1 packed rows
  /// into a bit-sliced block counter — `num_planes` planes of n words each,
  /// plane-major (plane p spans planes[p*n, p*n + n)), plane 0 the LSB —
  /// in registers, and stores each plane once. With `accumulate` false the
  /// counter is written from zero and its old contents are never read; with
  /// true the rows add onto the counts already there (a hop block whose rows
  /// arrive over several calls). The add is exact: the caller sizes
  /// num_planes so no column count exceeds 2^num_planes - 1.
  void (*count_rows)(const Word* const* rows, std::size_t num_rows, Word* planes,
                     unsigned num_planes, bool accumulate, std::size_t n) noexcept;

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

  /// Spatial encoding of `num_samples` samples of `channels` float values
  /// each (sample s at samples[s]): out[s] (n words) gets the majority of
  /// the sample's bound rows, as kernels::majority_words over those rows
  /// counts it.
  /// Channel c's value picks table row c * levels + level, levels being
  /// num_thresholds + 1 and level the number of the ascending `thresholds`
  /// the value is >= (quantize() over hd::ContinuousItemMemory::thresholds
  /// for every non-NaN float, 0 for NaN); row r spans table[r*n, r*n + n).
  /// Returns true when any value is NaN. The caller guarantees 1 <= channels
  /// <= kMaxEncodeChannels and a table of fewer than 2^32 words, so every row
  /// offset fits 32 bits.
  bool (*encode_samples)(const float* const* samples, std::size_t num_samples,
                         std::size_t channels, const float* thresholds,
                         std::size_t num_thresholds, const Word* table, Word* const* out,
                         std::size_t n) noexcept;

  /// The sliding N-gram recurrence over `num_rows` spatial rows, row s at
  /// spatial[s*w, s*w + w) with w = words_for_dim(dim): each row takes the
  /// gram G <- rho^{-1}(G ^ S_old) ^ rho^{n-1}(S_new), S_old being the row
  /// pushed n rows earlier (a zero row while the window fills, and G zero
  /// before the first row), so the gram of a full window is the direct
  /// reduction S_0 ^ rho(S_1) ^ ... ^ rho^{n-1}(S_{n-1}). The grams of full
  /// windows go to grams[0, w), grams[w, 2w), ...; a gram of a window still
  /// filling is written where the first full one will go. Returns how many
  /// full-window grams it wrote, and leaves `window` at the stream's new
  /// position, window.prev at the last gram written. window.prev may point
  /// into `grams`: each step reads the previous gram before any later step
  /// writes over it. `grams` must not overlap the ring or `spatial`.
  std::size_t (*ngram_rows)(NgramWindow& window, const Word* spatial, std::size_t num_rows,
                            Word* grams, std::size_t dim) noexcept;
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
