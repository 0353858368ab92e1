#include "nn/dropout.h"
#include "util/check.h"


namespace lncl::nn {

void DropoutMask(double rate, util::Rng* rng, size_t n,
                 std::vector<uint8_t>* mask) {
  mask->assign(n, 1);
  if (rate <= 0.0) return;
  uint8_t* m = mask->data();
  for (size_t i = 0; i < n; ++i) m[i] = !(rng->Uniform() < rate);
}

// Applies the drawn mask in a select loop the compiler vectorizes; the
// outputs match a draw-and-branch loop.
void DropoutApply(double rate, const uint8_t* mask, float* data, size_t n) {
  if (rate <= 0.0) return;
  const float scale = static_cast<float>(1.0 / (1.0 - rate));
  for (size_t i = 0; i < n; ++i) data[i] = mask[i] ? data[i] * scale : 0.0f;
}

namespace {

void ApplyForward(double rate, util::Rng* rng, float* data, size_t n,
                  std::vector<uint8_t>* mask) {
  DropoutMask(rate, rng, n, mask);
  DropoutApply(rate, mask->data(), data, n);
}

void ApplyBackward(double rate, const std::vector<uint8_t>& mask, float* grad,
                   size_t n) {
  LNCL_DCHECK(mask.size() == n);
  DropoutApply(rate, mask.data(), grad, n);
}

}  // namespace

void DropoutForward(double rate, util::Rng* rng, util::Vector* x,
                    std::vector<uint8_t>* mask) {
  ApplyForward(rate, rng, x->data(), x->size(), mask);
}

void DropoutForward(double rate, util::Rng* rng, util::Matrix* x,
                    std::vector<uint8_t>* mask) {
  ApplyForward(rate, rng, x->data(), x->size(), mask);
}

void DropoutBackward(double rate, const std::vector<uint8_t>& mask,
                     util::Vector* grad) {
  ApplyBackward(rate, mask, grad->data(), grad->size());
}

void DropoutBackward(double rate, const std::vector<uint8_t>& mask,
                     util::Matrix* grad) {
  ApplyBackward(rate, mask, grad->data(), grad->size());
}

}  // namespace lncl::nn
