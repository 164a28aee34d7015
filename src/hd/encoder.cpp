#include "hd/encoder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/status.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

SpatialEncoder::SpatialEncoder(ItemMemory im, ContinuousItemMemory cim, std::size_t channels)
    : im_(std::move(im)),
      cim_(std::move(cim)),
      channels_(channels),
      words_(words_for_dim(im_.dim())) {
  require(channels >= 1, "SpatialEncoder: channels must be >= 1");
  require(channels <= kernels::kMaxEncodeChannels, "SpatialEncoder: more than 4096 channels");
  require(im_.size() >= channels, "SpatialEncoder: item memory smaller than channel count");
  require(im_.dim() == cim_.dim(), "SpatialEncoder: IM/CIM dimension mismatch");
  const std::size_t levels = cim_.levels();
  // Backend::encode_samples addresses the table by 32-bit word offsets.
  require(levels * words_ <= ((std::uint64_t{1} << 32) - 1) / channels,
          "SpatialEncoder: bound-row table of 2^32 words or more");
  table_.resize(channels * levels * words_);
  for (std::size_t c = 0; c < channels; ++c) {
    const std::span<const Word> item = im_.at(c).words();
    for (std::size_t l = 0; l < levels; ++l) {
      const std::span<const Word> level = cim_.level(l).words();
      Word* row = table_.data() + (c * levels + l) * words_;
      for (std::size_t w = 0; w < words_; ++w) row[w] = item[w] ^ level[w];
    }
  }
}

void SpatialEncoder::encode_chunk(std::span<const std::vector<float>> samples,
                                  const kernels::Backend& backend, Word* const* out) const {
  const float* values[kChunkSamples];
  for (std::size_t s = 0; s < samples.size(); ++s) {
    require(samples[s].size() == channels_, "SpatialEncoder: sample size != channel count");
    values[s] = samples[s].data();
  }
  // Table rows have zero padding, so the majorities do too.
  const std::span<const float> thresholds = cim_.thresholds();
  const bool nan = backend.encode_samples(values, samples.size(), channels_, thresholds.data(),
                                          thresholds.size(), table_.data(), out, words_);
  require(!nan, "SpatialEncoder: sample value is NaN");
}

void SpatialEncoder::encode_batch(std::span<const std::vector<float>> samples,
                                  std::span<Hypervector> out) const {
  require(samples.size() == out.size(),
          "SpatialEncoder::encode_batch: samples/out size mismatch");
  const kernels::Backend& backend = kernels::active_backend();
  Word* rows[kChunkSamples];
  for (std::size_t base = 0; base < samples.size(); base += kChunkSamples) {
    const std::size_t count = std::min(kChunkSamples, samples.size() - base);
    for (std::size_t s = 0; s < count; ++s) {
      require(out[base + s].dim() == dim(),
              "SpatialEncoder::encode_batch: output dimension mismatch");
      rows[s] = out[base + s].mutable_words().data();
    }
    encode_chunk(samples.subspan(base, count), backend, rows);
  }
}

StreamingEncoder::StreamingEncoder(const SpatialEncoder& spatial, std::size_t n,
                                   const Hypervector& tie_break)
    : spatial_(&spatial), tie_break_(&tie_break) {
  rebind(spatial, n, tie_break);
}

void StreamingEncoder::rebind(const SpatialEncoder& spatial, std::size_t n,
                              const Hypervector& tie_break) {
  require(tie_break.dim() == spatial.dim(), "StreamingEncoder: tie-break dim mismatch");
  require(n >= 1, "StreamingEncoder: n must be >= 1");
  spatial_ = &spatial;
  tie_break_ = &tie_break;
  ring_.assign(n == 1 ? 0 : n * words_for_dim(spatial.dim()), Word{0});
  ngram_ = {.ring = ring_.data(), .n = n};
  window_ = 0;
  hop_ = 0;
  reset();
}

namespace {

// Makes `buffer` hold at least `count` hypervectors of `dim` components,
// keeping what it has when the dimension matches, so a reshape that needs
// no more allocates nothing.
void provision(std::vector<Hypervector>& buffer, std::size_t count, std::size_t dim) {
  if (!buffer.empty() && buffer.front().dim() != dim) buffer.clear();
  buffer.reserve(count);
  while (buffer.size() < count) buffer.emplace_back(dim);
}

}  // namespace

void StreamingEncoder::configure(std::size_t window, std::size_t hop) {
  require(window >= n(), "StreamingEncoder::configure: window must be >= n");
  require(hop >= 1, "StreamingEncoder::configure: hop must be >= 1");
  window_ = window;
  hop_ = hop;
  // A block is written from zero by the first count of its grams, so
  // reshaping only resizes the ring and no allocation happens mid-stream
  // after warmup.
  block_grams_ = std::min(hop, window - n() + 1);
  block_planes_ = static_cast<unsigned>(std::bit_width(block_grams_));
  blocks_.resize(active_windows(window, hop, n()) * block_planes_ * words_for_dim(dim()));
  const std::size_t words = words_for_dim(dim());
  chunk_.resize(kChunkSamples * words);
  if (n() > 1) grams_.resize(kChunkSamples * words);
  // Windows end hop grams apart, so a chunk completes at most this many.
  provision(windows_, (kChunkSamples - 1) / hop + 1, dim());
  reset();
}

void StreamingEncoder::reset() noexcept {
  // The ring reads as all-zero rows, so the first n rows build the direct
  // reduction S_0 ^ rho(S_1) ^ ... by the same recurrence.
  std::fill(ring_.begin(), ring_.end(), Word{0});
  ngram_.head = 0;
  ngram_.fill = 0;
  samples_pushed_ = 0;
  windows_emitted_ = 0;
  hop_offset_ = 0;
  block_slot_ = 0;
  grams_to_window_end_ = configured() ? window_ - n() + 1 : 0;
}

std::size_t StreamingEncoder::windows_completed_by(std::size_t samples) const noexcept {
  if (!configured()) return 0;
  const auto grams = [&](std::size_t pushed) { return pushed < n() ? 0 : pushed - n() + 1; };
  const std::size_t new_grams = grams(samples_pushed_ + samples) - grams(samples_pushed_);
  if (new_grams < grams_to_window_end_) return 0;
  return (new_grams - grams_to_window_end_) / hop_ + 1;
}

std::span<const Hypervector> StreamingEncoder::push_chunk(
    std::span<const std::vector<float>> samples) {
  require(configured(), "StreamingEncoder::push: configure() must be called first");
  const kernels::Backend& backend = kernels::active_backend();
  const std::size_t words = words_for_dim(dim());
  Word* spatial[kChunkSamples];
  for (std::size_t s = 0; s < samples.size(); ++s) spatial[s] = chunk_.data() + s * words;
  spatial_->encode_chunk(samples, backend, spatial);
  samples_pushed_ += samples.size();
  // The chunk's grams in stream order: its spatial rows at n == 1, else
  // the N-grams the recurrence completes, written into grams_.
  const std::size_t grams =
      n() == 1 ? samples.size()
               : backend.ngram_rows(ngram_, chunk_.data(), samples.size(), grams_.data(), dim());
  const Word* gram_rows = n() == 1 ? chunk_.data() : grams_.data();
  const Word* rows[kChunkSamples];
  for (std::size_t g = 0; g < grams; ++g) rows[g] = gram_rows + g * words;
  const std::size_t block_words = block_planes_ * words;
  const std::size_t num_blocks = blocks_.size() / block_words;
  std::size_t windows = 0;
  for (std::size_t g = 0; g < grams;) {
    // The grams up to the end of the current hop block or window, whichever
    // comes first, go into the block in one count — from zero when they
    // start it, onto its counts when an earlier chunk did. Past
    // block_grams_ (a hop longer than the window) no window holds a gram.
    const std::size_t run = std::min({grams - g, hop_ - hop_offset_, grams_to_window_end_});
    if (hop_offset_ < block_grams_) {
      backend.count_rows(rows + g, std::min(run, block_grams_ - hop_offset_),
                         blocks_.data() + block_slot_ * block_words, block_planes_,
                         hop_offset_ > 0, words);
    }
    g += run;
    hop_offset_ += run;
    if (hop_offset_ == hop_) {
      hop_offset_ = 0;
      if (++block_slot_ == num_blocks) block_slot_ = 0;
    }
    grams_to_window_end_ -= run;
    if (grams_to_window_end_ == 0) {
      // The gram was the last of a window: the ring holds exactly its
      // blocks, the last one filled to the window's end, so the window's
      // count is the sum of the whole ring. Gram and tie-break padding bits
      // are zero, their counts stay zero, and zero never exceeds the
      // threshold, so the majority's padding is zero too — including a
      // one-gram window's threshold-0 readout (odd, no tie), which is that
      // gram bit for bit. Exact ties exist only for an even gram count, and
      // only then does the tie-break row enter.
      grams_to_window_end_ = hop_;
      const std::size_t window_grams = window_ - n() + 1;
      backend.blocks_to_majority(
          blocks_.data(), num_blocks, block_planes_, window_grams / 2,
          window_grams % 2 == 0 ? tie_break_->words().data() : nullptr,
          windows_[windows++].mutable_words().data(), words);
      ++windows_emitted_;
    }
  }
  return std::span<const Hypervector>(windows_).first(windows);
}

}  // namespace pulphd::hd
