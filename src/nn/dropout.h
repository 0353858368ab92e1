#pragma once

#include <cstdint>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// Inverted dropout: kept units are scaled by 1/(1-p) during training so that
// no rescaling is required at inference time. `mask[i]` is 1 when unit i was
// kept. A rate of 0 keeps everything (mask all ones).
void DropoutForward(double rate, util::Rng* rng, util::Vector* x,
                    std::vector<uint8_t>* mask);
void DropoutForward(double rate, util::Rng* rng, util::Matrix* x,
                    std::vector<uint8_t>* mask);

// The two halves of DropoutForward, for callers that draw every mask of a
// batch before computing any activation: DropoutMask draws n mask entries
// from `rng` (none when rate <= 0), DropoutApply scales the kept entries of
// data[0, n) and zeroes the rest. DropoutApply is also the backward.
void DropoutMask(double rate, util::Rng* rng, size_t n,
                 std::vector<uint8_t>* mask);
void DropoutApply(double rate, const uint8_t* mask, float* data, size_t n);

// Backward for the same mask/rate.
void DropoutBackward(double rate, const std::vector<uint8_t>& mask,
                     util::Vector* grad);
void DropoutBackward(double rate, const std::vector<uint8_t>& mask,
                     util::Matrix* grad);

}  // namespace lncl::nn

