#include "nn/activations.h"

namespace lncl::nn {

void ReluForward(util::Matrix* x) {
  float* d = x->data();
  for (size_t i = 0; i < x->size(); ++i) {
    if (d[i] < 0.0f) d[i] = 0.0f;
  }
}

void ReluForward(util::Vector* x) {
  for (float& v : *x) {
    if (v < 0.0f) v = 0.0f;
  }
}

void ReluBackward(const util::Matrix& post, util::Matrix* grad) {
  const float* p = post.data();
  float* g = grad->data();
  for (size_t i = 0; i < grad->size(); ++i) {
    if (p[i] <= 0.0f) g[i] = 0.0f;
  }
}

void ReluBackward(const util::Vector& post, util::Vector* grad) {
  for (size_t i = 0; i < grad->size(); ++i) {
    if (post[i] <= 0.0f) (*grad)[i] = 0.0f;
  }
}

void TanhForward(util::Vector* x) {
  for (float& v : *x) v = Tanh(v);
}

void SigmoidForward(util::Vector* x) {
  for (float& v : *x) v = Sigmoid(v);
}

}  // namespace lncl::nn
