#include "hd/encoder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/status.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

namespace {

// Per-thread scratch of encode / encode_batch: one sample's CIM levels and
// its row pointers into the bound-row table. thread_local keeps the serial
// path (a serving shard included) allocation-free after warmup without any
// sharing between threads; an encode_trials helper thread lives for one
// call, so it warms its own copy each time.
struct SpatialArena {
  std::vector<std::uint32_t> levels;
  std::vector<const Word*> rows;
};

SpatialArena& spatial_arena(std::size_t channels) {
  static thread_local SpatialArena arena;
  if (arena.levels.size() < channels) arena.levels.resize(channels);
  if (arena.rows.size() < channels) arena.rows.resize(channels);
  return arena;
}

// Samples StreamingEncoder spatial-encodes per chunk: small enough (~80 KiB
// of hypervectors at the paper's D) to stay cache-resident.
constexpr std::size_t kChunkSamples = 64;

}  // namespace

SpatialEncoder::SpatialEncoder(ItemMemory im, ContinuousItemMemory cim, std::size_t channels)
    : im_(std::move(im)),
      cim_(std::move(cim)),
      channels_(channels),
      words_(words_for_dim(im_.dim())) {
  require(channels >= 1, "SpatialEncoder: channels must be >= 1");
  require(im_.size() >= channels, "SpatialEncoder: item memory smaller than channel count");
  require(im_.dim() == cim_.dim(), "SpatialEncoder: IM/CIM dimension mismatch");
  const kernels::Backend& backend = kernels::active_backend();
  const std::size_t levels = cim_.levels();
  table_.resize(channels * levels * words_);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t l = 0; l < levels; ++l) {
      backend.xor_words(im_.at(c).words().data(), cim_.level(l).words().data(),
                        table_.data() + (c * levels + l) * words_, words_);
    }
  }
}

std::vector<Hypervector> SpatialEncoder::bind_channels(std::span<const float> sample) const {
  require(sample.size() == channels_, "SpatialEncoder: sample size != channel count");
  std::vector<Hypervector> bound;
  bound.reserve(channels_ + 1);
  for (std::size_t c = 0; c < channels_; ++c) {
    bound.push_back(im_.at(c) ^ cim_.encode(sample[c]));
  }
  if (channels_ % 2 == 0) bound.push_back(bound[0] ^ bound[1]);
  return bound;
}

void SpatialEncoder::encode_into(std::span<const float> sample, const kernels::Backend& backend,
                                 std::uint32_t* level, const Word** rows, Word* out) const {
  require(sample.size() == channels_, "SpatialEncoder: sample size != channel count");
  // One compare-and-count over the CIM's exact float thresholds gives every
  // channel's quantize() level.
  const std::span<const float> thresholds = cim_.thresholds();
  const bool nan = backend.count_levels(sample.data(), channels_, thresholds.data(),
                                        thresholds.size(), level);
  require(!nan, "SpatialEncoder: sample value is NaN");
  const std::size_t levels = cim_.levels();
  for (std::size_t c = 0; c < channels_; ++c) {
    rows[c] = table_.data() + (c * levels + level[c]) * words_;
  }
  // The kernel counts §5.1's tie-break operand rows[0] ^ rows[1] itself
  // when the channel count is even. Table rows have zero padding, so the
  // majority does too.
  backend.majority_words(rows, channels_, out, words_);
}

Hypervector SpatialEncoder::encode(std::span<const float> sample) const {
  SpatialArena& arena = spatial_arena(channels_);
  Hypervector out(dim());
  encode_into(sample, kernels::active_backend(), arena.levels.data(), arena.rows.data(),
              out.mutable_words().data());
  return out;
}

void SpatialEncoder::encode_batch(std::span<const std::vector<float>> samples,
                                  std::span<Hypervector> out) const {
  require(samples.size() == out.size(),
          "SpatialEncoder::encode_batch: samples/out size mismatch");
  const kernels::Backend& backend = kernels::active_backend();
  SpatialArena& arena = spatial_arena(channels_);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    require(out[s].dim() == dim(), "SpatialEncoder::encode_batch: output dimension mismatch");
    encode_into(samples[s], backend, arena.levels.data(), arena.rows.data(),
                out[s].mutable_words().data());
  }
}

StreamingEncoder::TemporalEncoder::TemporalEncoder(std::size_t n, std::size_t dim)
    : n_(n),
      dim_(dim),
      window_(n > 1 ? n : 0, Hypervector(dim)),
      gram_(dim),
      scratch_(dim),
      rotated_new_(dim) {
  require(n >= 1, "StreamingEncoder: n must be >= 1");
}

const Hypervector* StreamingEncoder::TemporalEncoder::push(const Hypervector& spatial) {
  // Pass-through (the paper's EMG configuration): the 1-gram is the spatial
  // hypervector itself.
  if (n_ == 1) return &spatial;
  if (fill_ < n_) {
    window_[fill_] = spatial;  // assignment reuses the preallocated slot
    ++fill_;
    if (fill_ < n_) return nullptr;
    // First full window: the direct reduction G = S_0 ^ rho(S_1) ^ ... ^
    // rho^{n-1}(S_{n-1}), rotating into preallocated scratch.
    gram_ = window_[0];
    for (std::size_t k = 1; k < n_; ++k) {
      window_[k].rotate_into(scratch_, k);
      gram_ ^= scratch_;
    }
    head_ = 0;
    return &gram_;
  }
  // Steady state: slide the window by the recurrence
  //   G_{t+1} = rho^{-1}(G_t ^ S_oldest) ^ rho^{n-1}(S_new)
  // (rho^{-1} == rho^{dim-1}): XOR the expiring sample out, un-rotate the
  // survivors one step, and splice the newest sample in at depth n-1 — two
  // rotations and two XORs per sample, however large n is.
  gram_ ^= window_[head_];
  gram_.rotate_into(scratch_, dim_ - 1);
  spatial.rotate_into(rotated_new_, n_ - 1);
  scratch_ ^= rotated_new_;
  std::swap(gram_, scratch_);
  window_[head_] = spatial;
  head_ = (head_ + 1) % n_;
  return &gram_;
}

StreamingEncoder::StreamingEncoder(const SpatialEncoder& spatial, std::size_t n,
                                   const Hypervector& tie_break)
    : spatial_(&spatial), tie_break_(&tie_break), temporal_(n, spatial.dim()) {
  require(tie_break.dim() == spatial.dim(), "StreamingEncoder: tie-break dim mismatch");
}

void StreamingEncoder::rebind(const SpatialEncoder& spatial, std::size_t n,
                              const Hypervector& tie_break) {
  require(tie_break.dim() == spatial.dim(), "StreamingEncoder: tie-break dim mismatch");
  if (n != temporal_.n() || spatial.dim() != temporal_.dim()) {
    temporal_ = TemporalEncoder(n, spatial.dim());
  }
  spatial_ = &spatial;
  tie_break_ = &tie_break;
  window_ = 0;
  hop_ = 0;
  reset();
}

void StreamingEncoder::configure(std::size_t window, std::size_t hop) {
  require(window >= n(), "StreamingEncoder::configure: window must be >= n");
  require(hop >= 1, "StreamingEncoder::configure: hop must be >= 1");
  window_ = window;
  hop_ = hop;
  // The ring's blocks are zeroed as each block starts, so reshaping only
  // resizes it and no allocation happens mid-stream after warmup.
  block_grams_ = std::min(hop, window - n() + 1);
  block_planes_ = static_cast<unsigned>(std::bit_width(block_grams_));
  blocks_.resize(active_windows(window, hop, n()) * block_planes_ * words_for_dim(dim()));
  if (chunk_.empty() || chunk_.front().dim() != dim()) {
    chunk_.assign(kChunkSamples, Hypervector(dim()));
  }
  reset();
}

void StreamingEncoder::reset() noexcept {
  temporal_.reset();
  samples_pushed_ = 0;
  windows_emitted_ = 0;
  hop_offset_ = 0;
  block_slot_ = 0;
  grams_to_window_end_ = configured() ? window_ - n() + 1 : 0;
}

void StreamingEncoder::on_gram(const kernels::Backend& backend, const Word* gram_words,
                               std::vector<Hypervector>& out) {
  const std::size_t words = words_for_dim(dim());
  const std::size_t block_words = block_planes_ * words;
  // The gram goes into the current hop block once. Past block_grams_ (a hop
  // longer than the window) no window holds it.
  if (hop_offset_ < block_grams_) {
    Word* block = blocks_.data() + block_slot_ * block_words;
    if (hop_offset_ == 0) std::fill_n(block, block_words, Word{0});
    backend.add_to_counter(gram_words, block, block_planes_, words);
  }
  if (++hop_offset_ == hop_) {
    hop_offset_ = 0;
    if (++block_slot_ == blocks_.size() / block_words) block_slot_ = 0;
  }
  if (--grams_to_window_end_ == 0) {
    // The gram was the last of a window: the ring holds exactly its blocks,
    // the last one filled to the window's end, so the window's count is the
    // sum of the whole ring. Gram and tie-break padding bits are zero,
    // their counts stay zero, and zero never exceeds the threshold, so the
    // majority's padding is zero too — including a one-gram window's
    // threshold-0 readout (odd, no tie), which is that gram bit for bit.
    // Exact ties exist only for an even gram count, and only then does the
    // tie-break row enter.
    grams_to_window_end_ = hop_;
    const std::size_t grams = window_ - n() + 1;
    out.emplace_back(dim());
    backend.blocks_to_majority(blocks_.data(), blocks_.size() / block_words, block_planes_,
                               grams / 2, grams % 2 == 0 ? tie_break_->words().data() : nullptr,
                               out.back().mutable_words().data(), words);
    ++windows_emitted_;
  }
}

std::size_t StreamingEncoder::push(std::span<const std::vector<float>> samples,
                                   std::vector<Hypervector>& out) {
  require(configured(), "StreamingEncoder::push: configure() must be called first");
  const std::size_t emitted_before = out.size();
  const kernels::Backend& backend = kernels::active_backend();
  const std::span<Hypervector> chunk_buf(chunk_);
  // Chunked batch spatial encode feeding the sliding N-gram recurrence, one
  // bundling step per complete N-gram; the ring carries across pushes.
  for (std::size_t base = 0; base < samples.size(); base += chunk_buf.size()) {
    const std::size_t chunk = std::min(chunk_buf.size(), samples.size() - base);
    spatial_->encode_batch(samples.subspan(base, chunk), chunk_buf.subspan(0, chunk));
    for (std::size_t s = 0; s < chunk; ++s) {
      if (const Hypervector* gram = temporal_.push(chunk_buf[s])) {
        on_gram(backend, gram->words().data(), out);
      }
    }
  }
  samples_pushed_ += samples.size();
  return out.size() - emitted_before;
}

}  // namespace pulphd::hd
