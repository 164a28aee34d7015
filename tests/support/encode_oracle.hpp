// Reference forms of the encoding chain's pieces, for tests and the fuzz
// harness to check the library against. None of them is on a library
// path: the encoders compute the same bits from the bound-row table and the
// sliding N-gram recurrence.
//
//  * bind_channels — every channel's bound pair E_c ^ V_c, straight from the
//    IM and CIM, plus §5.1's tie-break operand for an even channel count;
//    majority() over it is the spatial hypervector.
//  * ngram — the direct N-gram reduction of one window (§2.1.1).
//  * spatial_encode — SpatialEncoder::encode_batch on one sample, the
//    table path the reference is checked against.
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "hd/encoder.hpp"
#include "hd/hypervector.hpp"

namespace pulphd::hd::oracle {

/// The bound (pre-majority) hypervectors of one sample, computed from the
/// memories rather than the table; `sample.size()` must equal the
/// encoder's channel count.
inline std::vector<Hypervector> bind_channels(const SpatialEncoder& encoder,
                                              std::span<const float> sample) {
  require(sample.size() == encoder.channels(), "SpatialEncoder: sample size != channel count");
  std::vector<Hypervector> bound;
  bound.reserve(encoder.channels() + 1);
  for (std::size_t c = 0; c < encoder.channels(); ++c) {
    bound.push_back(encoder.im().at(c) ^ encoder.cim().encode(sample[c]));
  }
  if (encoder.channels() % 2 == 0) bound.push_back(bound[0] ^ bound[1]);
  return bound;
}

/// N-gram temporal encoding (§2.1.1):
///   G = S_0 ^ rho^1(S_1) ^ rho^2(S_2) ^ ... ^ rho^(n-1)(S_{n-1})
/// where S_0 is the *oldest* sample in the window. A single-element window
/// returns the element itself (N = 1 means no temporal encoding).
inline Hypervector ngram(std::span<const Hypervector> window) {
  require(!window.empty(), "ngram: window must not be empty");
  Hypervector out = window[0];
  if (window.size() == 1) return out;
  Hypervector rotated(out.dim());
  for (std::size_t k = 1; k < window.size(); ++k) {
    require(window[k].dim() == out.dim(), "ngram: dimension mismatch in window");
    window[k].rotate_into(rotated, k);
    out ^= rotated;
  }
  return out;
}

/// The spatial hypervector of one sample through the encoder's table path.
inline Hypervector spatial_encode(const SpatialEncoder& encoder, const std::vector<float>& sample) {
  Hypervector out(encoder.dim());
  encoder.encode_batch(std::span(&sample, 1), std::span(&out, 1));
  return out;
}

}  // namespace pulphd::hd::oracle
