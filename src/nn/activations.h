#pragma once

#include <bit>
#include <cstdint>

#include "util/matrix.h"

namespace lncl::nn {

// Gate nonlinearities, written as plain float arithmetic so that GCC
// auto-vectorizes every loop that calls them (no libm call, no intrinsic).
// Under the build's -ffp-contract=off each lane of a vectorized loop runs
// the same sequence of correctly rounded IEEE operations as the scalar
// code, so a value computed in a vector body, in a scalar tail, or one at a
// time is bit-identical — what keeps a lane of a Gru/Lstm batch byte-equal
// to that lane run alone, whatever the batch size or hidden width.
//
// Accuracy against a double-precision reference (tests/nn_test.cc): Tanh
// within 4e-7 absolute, Sigmoid within 2e-7 absolute. Both saturate exactly
// (Tanh(±30) == ±1, Sigmoid(30) == 1, Sigmoid(x <= -88) == 0), stay inside
// their ranges, and propagate NaN so the audit checks still see a
// non-finite pre-activation.
namespace detail {

// exp(x) for x <= 0 (or NaN). Cody-Waite range reduction x = n ln2 + r,
// |r| <= ln2/2, with n rounded by the 1.5 * 2^23 magic-number trick; the
// Cephes expf polynomial for exp(r); 2^n assembled from n's bits. Inputs
// below -88 are clamped there, where n = -127 makes 2^n the all-zero bit
// pattern, so the result underflows to exactly 0 instead of producing a
// subnormal or wrapping the exponent.
inline float ExpNonPositive(float x) {
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  x = x < -88.0f ? -88.0f : x;  // NaN compares false and passes through
  const float t = x * kLog2e + kMagic;
  const float n = t - kMagic;
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  // The low mantissa bits of t hold n + 2^22; subtracting the magic's bits
  // leaves n. Unsigned arithmetic keeps the NaN case (garbage bits, NaN p)
  // free of signed overflow.
  const uint32_t bits =
      (std::bit_cast<uint32_t>(t) - std::bit_cast<uint32_t>(kMagic) + 127u)
      << 23;
  return p * std::bit_cast<float>(bits);
}

}  // namespace detail

// 1 / (1 + exp(-x)), evaluated through e = exp(-|x|) <= 1 so both tails
// keep full relative accuracy: 1 / (1 + e) for x >= 0, e / (1 + e) below.
inline float Sigmoid(float x) {
  const float ax = x < 0.0f ? -x : x;
  const float e = detail::ExpNonPositive(-ax);
  const float inv = 1.0f / (1.0f + e);
  return x < 0.0f ? e * inv : inv;
}

// tanh(x), after Cephes tanhf: an odd polynomial for |x| < 0.625, else
// (1 - e) / (1 + e) with e = exp(-2|x|); x's sign bit is restored last, so
// Tanh(-0) == -0 and NaN keeps its payload. Both branches are computed and
// one is selected, which is what lets the loop vectorize.
inline float Tanh(float x) {
  constexpr uint32_t kSign = 0x80000000u;
  const uint32_t xbits = std::bit_cast<uint32_t>(x);
  const float ax = std::bit_cast<float>(xbits & ~kSign);
  const float z = ax * ax;
  float p = -5.70498872745e-3f;
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const float small = p * z * ax + ax;
  const float e = detail::ExpNonPositive(-2.0f * ax);
  const float large = (1.0f - e) / (1.0f + e);
  const float t = ax < 0.625f ? small : large;
  return std::bit_cast<float>(std::bit_cast<uint32_t>(t) | (xbits & kSign));
}

// In-place ReLU on pre-activations; the pre-activation matrix must be kept by
// the caller if a backward pass follows (see ReluBackward).
void ReluForward(util::Matrix* x);
void ReluForward(util::Vector* x);

// Zeroes gradient entries where the pre-activation was <= 0. `pre` is the
// matrix BEFORE ReluForward was applied... since ReluForward is in-place the
// post-activation works equally (relu(x) > 0 iff x > 0).
void ReluBackward(const util::Matrix& post, util::Matrix* grad);
void ReluBackward(const util::Vector& post, util::Vector* grad);

// Elementwise Tanh / Sigmoid forward (in place).
void TanhForward(util::Vector* x);
void SigmoidForward(util::Vector* x);

}  // namespace lncl::nn
