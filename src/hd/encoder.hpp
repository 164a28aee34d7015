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
// so each step costs two rotations and two XORs instead of N-1 rotations.
#pragma once

#include <span>
#include <vector>

#include "hd/item_memory.hpp"
#include "hd/ops.hpp"

namespace pulphd::kernels {
struct Backend;
}

namespace pulphd::hd {

/// Spatial encoder over a fixed channel set. It owns the bound-row table
/// B[c][l] = E_c ^ V_l (IM channel c bound with CIM level l), channel-major
/// as channels x levels rows of packed words, built once at construction:
/// a sample then costs one quantize per channel, which picks the row
/// B[c][level], plus the channel majority over the picked rows.
class SpatialEncoder {
 public:
  /// Both memories must share the same dimension; the IM must have at least
  /// as many items as `channels`.
  SpatialEncoder(const ItemMemory& im, const ContinuousItemMemory& cim, std::size_t channels);

  /// Takes `other`'s bound-row table without rebuilding it and views `im`
  /// and `cim` instead of `other`'s memories. They must hold the items the
  /// table was built from (a classifier moving its memories and encoder
  /// together).
  SpatialEncoder(SpatialEncoder&& other, const ItemMemory& im,
                 const ContinuousItemMemory& cim) noexcept;

  std::size_t channels() const noexcept { return channels_; }
  std::size_t dim() const noexcept { return im_->dim(); }

  /// Bytes of the bound-row table: channels x levels x words.
  std::size_t table_bytes() const noexcept { return table_.size() * sizeof(Word); }

  /// Encodes one multichannel sample (one value per channel, in the CIM's
  /// physical units). `sample.size()` must equal `channels()`; a NaN value
  /// throws std::invalid_argument. The majority reads the table rows in
  /// place — no per-sample heap allocation.
  Hypervector encode(std::span<const float> sample) const;

  /// Batch encode: encodes samples[i] into out[i]; both spans must have
  /// equal length and every out[i] must already be a hypervector of dim()
  /// components. Runs the same per-sample body as encode(), straight into
  /// the caller's hypervectors.
  void encode_batch(std::span<const std::vector<float>> samples,
                    std::span<Hypervector> out) const;

  /// Exposes the bound (pre-majority) hypervectors, including the tie-break
  /// operand when the channel count is even, computed from the memories
  /// rather than the table; used by bit-exactness tests.
  std::vector<Hypervector> bind_channels(std::span<const float> sample) const;

 private:
  /// The per-sample body of encode and encode_batch. `rows` has room for
  /// channels + 1 pointers and `tie` for one row of words.
  void encode_into(std::span<const float> sample, const kernels::Backend& backend,
                   const Word** rows, Word* tie, Word* out) const;

  const ItemMemory* im_;
  const ContinuousItemMemory* cim_;
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
/// appends one query hypervector per window completed inside the push;
/// `reset()` drops the stream position but keeps the window/hop so a session
/// can be reused, and re-`configure` reshapes it mid-stream.
///
/// Window w covers samples [w*hop, w*hop + window); its query is the
/// majority bundle of the window's N-grams, bit-identical to
/// HdClassifier::encode_query over the equivalent buffered slice — the
/// N-gram at position j depends only on samples j..j+n-1, so the continuous
/// recurrence and a fresh per-slice pass produce the same bits (pinned
/// against a sample-at-a-time reference by tests/hd/encoder_oracle_test).
/// Bundling adds each N-gram once, into the bit-sliced counter of its hop
/// block (grams [b*hop, (b+1)*hop) form block b). A window's grams are
/// (window - n + 1) / hop whole blocks plus the first
/// r = (window - n + 1) % hop grams of the next one, and the window ends
/// exactly when that next block holds r grams — so a window's query is the
/// full-adder sum of the blocks in a ring of active_windows() of them,
/// read out against the majority threshold in one pass. A hop longer than
/// the window's gram count leaves grams no window holds; they are skipped.
/// All state (the n-deep temporal ring, the spatial chunk buffer and the
/// block ring) is owned by the object and carried across pushes, so a
/// session may migrate between threads as long as calls are externally
/// serialized.
class StreamingEncoder {
 public:
  /// `spatial` and `tie_break` (the query-bundle tie-break row, only
  /// consulted for windows with an even N-gram count) are viewed, not
  /// copied, and must outlive the encoder; `n` is the temporal window size.
  StreamingEncoder(const SpatialEncoder& spatial, std::size_t n, const Hypervector& tie_break);
  StreamingEncoder(const SpatialEncoder&, std::size_t, Hypervector&&) = delete;

  /// Re-points the encoder at another model's spatial encoder, N-gram depth
  /// and tie-break, as if freshly constructed: the window/hop must be
  /// configured again. The chunk, ring and counter buffers are kept when the
  /// dimension and n are unchanged, so a re-point allocates nothing.
  void rebind(const SpatialEncoder& spatial, std::size_t n, const Hypervector& tie_break);

  std::size_t n() const noexcept { return temporal_.n(); }
  std::size_t dim() const noexcept { return spatial_->dim(); }
  std::size_t channels() const noexcept { return spatial_->channels(); }

  /// Overlapping windows simultaneously being bundled for a window/hop
  /// shape: floor((window - n) / hop) + 1 — the hop blocks one window
  /// spans, hence the block ring's size. Counter memory and the per-window
  /// readout scale with it; the per-gram add does not.
  static std::size_t active_windows(std::size_t window, std::size_t hop, std::size_t n) noexcept {
    return (window - n) / hop + 1;
  }

  /// (Re)shapes the session: emit one decision per `hop` samples over a
  /// sliding `window`. Requires window >= n and hop >= 1; resets the stream
  /// position and preallocates the block ring. Throws
  /// std::invalid_argument on a bad shape.
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

  /// Feeds `samples` (each `channels()` floats) in chronological order and
  /// appends the query hypervector of every window completed by them to
  /// `out`; returns how many were appended. Window k's query lands before
  /// window k+1's, and splitting a stream across pushes at any boundary
  /// yields bit-identical output. Throws std::invalid_argument when not
  /// configured.
  std::size_t push(std::span<const std::vector<float>> samples, std::vector<Hypervector>& out);

 private:
  /// Sliding-window N-gram ring. Every buffer (the n-slot window ring, the
  /// running N-gram, and the two rotation scratch hypervectors) is
  /// allocated at construction, and push maintains the N-gram with the
  /// sliding recurrence above — the steady state is allocation-free and
  /// costs O(dim) per sample independent of n. With n == 1 it is a
  /// pass-through (the paper's EMG configuration).
  class TemporalEncoder {
   public:
    TemporalEncoder(std::size_t n, std::size_t dim);

    std::size_t n() const noexcept { return n_; }
    std::size_t dim() const noexcept { return dim_; }

    /// Pushes the newest spatial hypervector; returns the N-gram of the
    /// window it completes (`spatial` itself when n == 1), or nullptr while
    /// the window is still filling. The result is valid until the next
    /// push.
    const Hypervector* push(const Hypervector& spatial);

    void reset() noexcept {
      fill_ = 0;
      head_ = 0;
    }

   private:
    std::size_t n_;
    std::size_t dim_;
    std::vector<Hypervector> window_;  ///< ring of the last n spatials; oldest at head_
    std::size_t head_ = 0;
    std::size_t fill_ = 0;
    Hypervector gram_;     ///< N-gram of the current window (valid when fill_ == n)
    Hypervector scratch_;  ///< rotation target (rotate_into needs dst != src)
    Hypervector rotated_new_;
  };

  void on_gram(const kernels::Backend& backend, const Word* gram_words,
               std::vector<Hypervector>& out);

  const SpatialEncoder* spatial_;
  const Hypervector* tie_break_;
  TemporalEncoder temporal_;  ///< preallocated n-deep ring
  std::size_t window_ = 0;    ///< 0 = not configured
  std::size_t hop_ = 0;
  std::vector<Hypervector> chunk_;  ///< spatial chunk buffer
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
