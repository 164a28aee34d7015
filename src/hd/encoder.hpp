// Spatial and temporal encoders — the middle stage of the processing chain
// (Fig. 1 of the paper).
//
// Spatial encoder: given one time-aligned sample per channel, bind each
// channel hypervector E_i (IM) with the hypervector of its quantized signal
// level V_i^t (CIM) and bundle the bound pairs with componentwise majority:
//   S_t = [ (E_1 ^ V_1^t) + ... + (E_c ^ V_c^t) ]
// With an even channel count, the tie-break operand (E_1^V_1) ^ (E_2^V_2)
// is added (§5.1: "one random but reproducible hypervector is generated, by
// componentwise XOR between two bound hypervectors").
//
// Temporal encoder: an N-gram over the last N spatial hypervectors,
//   G_t = S_t ^ rho(S_{t+1}) ^ ... ^ rho^{N-1}(S_{t+N-1}),
// maintained incrementally by the sliding recurrence
//   G_{t+1} = rho^{-1}(G_t ^ S_t) ^ rho^{N-1}(S_{t+N})
// so each step is one pass over the words, computing
//   G_{t+1}[w] = rho^{-1}(G_t ^ S_t)[w] ^ rho^{N-1}(S_{t+N})[w]
// word by word, instead of N-1 rotations; one Backend::ngram_rows call
// runs it over a chunk of spatial rows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hd/item_memory.hpp"
#include "hd/ops.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

class StreamingEncoder;

/// Spatial encoder over a fixed channel set: the whole mapping stage. It
/// owns the IM, the CIM and the bound-row table B[c][l] = E_c ^ V_l (IM
/// channel c bound with CIM level l), channel-major as channels x levels
/// rows of packed words, built once at construction. A plain value: copies
/// and moves carry all three, and it keeps no scratch, so one encoder may be
/// shared by any number of threads. A chunk of up to kChunkSamples samples
/// costs one Backend::encode_samples call: it quantizes every channel
/// against the CIM's exact float thresholds, turns each level into the
/// offset of row B[c][level] and bundles those rows in place. That kernel
/// counts the §5.1 tie-break operand B[0][·] ^ B[1][·] of an even channel
/// count itself, so the encoder keeps no tie-break row.
class SpatialEncoder {
 public:
  /// Samples one Backend::encode_samples call takes at most.
  static constexpr std::size_t kChunkSamples = 64;

  /// Both memories must share the same dimension; the IM must have at least
  /// as many items as `channels`, which may be at most
  /// kernels::kMaxEncodeChannels, and the table must hold fewer than 2^32
  /// words.
  SpatialEncoder(ItemMemory im, ContinuousItemMemory cim, std::size_t channels);

  const ItemMemory& im() const noexcept { return im_; }
  const ContinuousItemMemory& cim() const noexcept { return cim_; }
  std::size_t channels() const noexcept { return channels_; }
  std::size_t dim() const noexcept { return im_.dim(); }

  /// Bytes of the bound-row table: channels x levels x words.
  std::size_t table_bytes() const noexcept { return table_.size() * sizeof(Word); }

  /// Encodes samples[i] (one value per channel, in the CIM's physical
  /// units) into out[i]; both spans must have equal length and every out[i]
  /// must already be a hypervector of dim() components. Every sample's size
  /// must equal `channels()`, and a NaN value throws std::invalid_argument.
  /// The call allocates nothing; StreamingEncoder runs the same chunk body.
  void encode_batch(std::span<const std::vector<float>> samples,
                    std::span<Hypervector> out) const;

 private:
  friend class StreamingEncoder;

  /// The chunk body of encode_batch and StreamingEncoder's push: at most
  /// kChunkSamples samples into the rows out[0 ..] of dim() components.
  /// Checks every sample's size before the kernel runs and throws on a NaN
  /// after it.
  void encode_chunk(std::span<const std::vector<float>> samples, const kernels::Backend& backend,
                    Word* const* out) const;

  ItemMemory im_;
  ContinuousItemMemory cim_;
  std::size_t channels_;
  std::size_t words_;
  std::vector<Word> table_;  ///< B[c][l] at (c * levels + l) * words_
};

/// The one N-gram encoder of the host model: batched spatial chunks ->
/// sliding N-gram recurrence -> hop-block counter bundling, as an explicit
/// configure/push/emit/reset state object. A session emits one bundled
/// query hypervector per hop of a sliding decision window, so an always-on
/// client can feed samples as they arrive instead of buffering a whole
/// trial; HdClassifier runs its trial shapes through the same object (a
/// query is window = hop = trial length, training is window = n, hop = 1,
/// where each window's one-gram bundle is that N-gram bit for bit).
///
/// Lifecycle: construct against a model's spatial encoder, N-gram depth and
/// query tie-break, then `configure(window, hop)` the sliding decision
/// window. Every `push` may span any number of samples (including zero) and
/// hands the caller the query hypervector of every window completed inside
/// the push; `reset()` drops the stream position but keeps the window/hop so
/// a session can be reused, and re-`configure` reshapes it mid-stream.
///
/// Window w covers samples [w*hop, w*hop + window); its query is the
/// majority bundle of the window's N-grams, bit-identical to
/// HdClassifier::encode_query over the equivalent buffered slice — the
/// N-gram at position j depends only on samples j..j+n-1, so the continuous
/// recurrence and a fresh per-slice pass produce the same bits (pinned
/// against a sample-at-a-time reference by tests/hd/encoder_oracle_test).
/// Bundling adds each N-gram once, into the bit-sliced counter of its hop
/// block (grams [b*hop, (b+1)*hop) form block b): a push spatial-encodes
/// kChunkSamples samples at a time, and the grams of a chunk that fall into
/// one block are counted into it by one Backend::count_rows call — the
/// chunk's spatial rows themselves at n == 1, otherwise the grams one
/// Backend::ngram_rows call per chunk writes into a chunk-sized buffer. A
/// window's grams are (window - n + 1) / hop whole blocks plus the first
/// r = (window - n + 1) % hop grams of the next one, and the window ends
/// exactly when that next block holds r grams — so a window's query is the
/// full-adder sum of the blocks in a ring of active_windows() of them,
/// read out against the majority threshold in one pass. A hop longer than
/// the window's gram count leaves grams no window holds; they are skipped.
/// All state (the n-deep temporal ring, the chunk, gram and window buffers
/// and the block ring) is owned by the object, sized by construction,
/// rebind and configure and carried across pushes, so a warm push allocates
/// nothing, and a session may migrate between threads as long as calls are
/// externally serialized.
class StreamingEncoder {
 public:
  /// Samples a push spatial-encodes, N-grams and bundles at a time: small
  /// enough (~80 KiB of hypervectors at the paper's D) to stay
  /// cache-resident.
  static constexpr std::size_t kChunkSamples = SpatialEncoder::kChunkSamples;

  /// `spatial` and `tie_break` (the query-bundle tie-break row, only
  /// consulted for windows with an even N-gram count) are viewed, not
  /// copied, and must outlive the encoder; `n` is the temporal window size.
  StreamingEncoder(const SpatialEncoder& spatial, std::size_t n, const Hypervector& tie_break);
  StreamingEncoder(const SpatialEncoder&, std::size_t, Hypervector&&) = delete;
  /// Move-only: the N-gram window points into the encoder's own ring and
  /// gram buffer, which a move carries along and a copy would not.
  StreamingEncoder(StreamingEncoder&&) = default;
  StreamingEncoder& operator=(StreamingEncoder&&) = default;

  /// Re-points the encoder at another model's spatial encoder, N-gram depth
  /// and tie-break, as if freshly constructed: the window/hop must be
  /// configured again. The buffers are kept when the dimension and n are
  /// unchanged, so a re-point to a model of the same shape allocates
  /// nothing.
  void rebind(const SpatialEncoder& spatial, std::size_t n, const Hypervector& tie_break);

  std::size_t n() const noexcept { return ngram_.n; }
  std::size_t dim() const noexcept { return spatial_->dim(); }
  std::size_t channels() const noexcept { return spatial_->channels(); }

  /// Overlapping windows simultaneously being bundled for a window/hop
  /// shape: floor((window - n) / hop) + 1 — the hop blocks one window
  /// spans, hence the block ring's size. Counter memory and the per-window
  /// readout scale with it; the per-gram count does not.
  static std::size_t active_windows(std::size_t window, std::size_t hop, std::size_t n) noexcept {
    return (window - n) / hop + 1;
  }

  /// (Re)shapes the session: emit one decision per `hop` samples over a
  /// sliding `window`. Requires window >= n and hop >= 1; resets the stream
  /// position and preallocates the block ring and the chunk buffers (the
  /// gram buffer only when n > 1). Throws std::invalid_argument on a bad
  /// shape.
  void configure(std::size_t window, std::size_t hop);

  /// Drops all stream state (temporal ring, counters, sample position) but
  /// keeps the configured window/hop — the "new recording, same session"
  /// reset.
  void reset() noexcept;

  bool configured() const noexcept { return window_ != 0; }
  std::size_t window() const noexcept { return window_; }
  std::size_t hop() const noexcept { return hop_; }

  /// Samples consumed since the last configure/reset.
  std::size_t samples_pushed() const noexcept { return samples_pushed_; }
  /// Windows emitted since the last configure/reset.
  std::size_t windows_emitted() const noexcept { return windows_emitted_; }

  /// The number of windows a push of `samples` more samples completes,
  /// from the stream position alone — what push will return for it.
  std::size_t windows_completed_by(std::size_t samples) const noexcept;

  /// Feeds `samples` (each `channels()` floats) in chronological order and
  /// calls on_window(query) with the query hypervector of every window they
  /// complete, window k's before window k+1's; returns how many it called.
  /// `query` lives in encoder-owned storage that the push reuses from one
  /// chunk of kChunkSamples samples to the next; the last query a push
  /// hands over stays valid until the encoder next pushes, configures or
  /// rebinds. Splitting a stream across pushes at any boundary yields
  /// bit-identical queries. Throws std::invalid_argument when not
  /// configured.
  template <typename OnWindow>
  std::size_t push(std::span<const std::vector<float>> samples, OnWindow&& on_window) {
    std::size_t emitted = 0;
    std::size_t base = 0;
    do {
      const std::size_t count = std::min(kChunkSamples, samples.size() - base);
      for (const Hypervector& query : push_chunk(samples.subspan(base, count))) {
        on_window(query);
        ++emitted;
      }
      base += count;
    } while (base < samples.size());
    return emitted;
  }

  /// push that appends a copy of every window's query to `out`.
  std::size_t push(std::span<const std::vector<float>> samples, std::vector<Hypervector>& out) {
    return push(samples, [&out](const Hypervector& query) { out.push_back(query); });
  }

 private:
  /// Spatial-encodes, N-grams and bundles at most kChunkSamples samples
  /// (zero only to check the encoder is configured); returns the queries
  /// of the windows they complete, in windows_.
  std::span<const Hypervector> push_chunk(std::span<const std::vector<float>> samples);

  const SpatialEncoder* spatial_;
  const Hypervector* tie_break_;
  /// The sliding N-gram window for n > 1: the n-deep ring of spatial rows,
  /// sized by construction and rebind, and the stream position that one
  /// Backend::ngram_rows call per chunk advances with the sliding
  /// recurrence above — allocation-free, O(dim) per sample independent of
  /// n. At n == 1 the ring is empty and bypassed: the 1-gram is the
  /// spatial hypervector itself (the paper's EMG configuration).
  std::vector<Word> ring_;
  kernels::NgramWindow ngram_;
  std::size_t window_ = 0;  ///< 0 = not configured
  std::size_t hop_ = 0;
  /// One chunk's spatial rows and N-grams (n > 1 only), kChunkSamples rows
  /// of the hypervector's words each, back to back.
  std::vector<Word> chunk_;
  std::vector<Word> grams_;
  std::vector<Hypervector> windows_;  ///< the queries of the windows one chunk completes
  /// Ring of active_windows() hop-block counters, back to back, each
  /// block_planes_ plane-major planes of the hypervector's words.
  std::vector<Word> blocks_;
  std::size_t block_grams_ = 0;  ///< grams a block holds: min(hop, window - n + 1)
  unsigned block_planes_ = 0;    ///< planes that count block_grams_
  std::size_t samples_pushed_ = 0;
  std::size_t windows_emitted_ = 0;
  std::size_t hop_offset_ = 0;           ///< the next gram's place in its hop block
  std::size_t block_slot_ = 0;           ///< ring slot of the current hop block
  std::size_t grams_to_window_end_ = 0;  ///< grams until the next window completes
};

}  // namespace pulphd::hd
