#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// Long short-term memory layer (Hochreiter & Schmidhuber, 1997):
//
//   i_t = sigmoid(Wi x_t + Ui h_{t-1} + bi)        (input gate)
//   f_t = sigmoid(Wf x_t + Uf h_{t-1} + bf)        (forget gate)
//   o_t = sigmoid(Wo x_t + Uo h_{t-1} + bo)        (output gate)
//   g_t = tanh   (Wg x_t + Ug h_{t-1} + bg)        (candidate)
//   c_t = f_t . c_{t-1} + i_t . g_t
//   h_t = o_t . tanh(c_t)
//
// The drop-in alternative to nn::Gru (same variable-length batch layout and
// Forward/Backward/AccumulateGrads surface, with its own Cache), used by
// models::NerTagger for the recurrent-cell ablation. Initial hidden and cell
// states are zero; the forget-gate bias is initialized to +1, the standard
// trick for healthy gradient flow.
class Lstm {
 public:
  // Gate activations of a training forward, rows aligned with x.
  struct Cache {
    util::Matrix h;   // hidden states
    util::Matrix c;   // cell states
    util::Matrix i;   // gates / candidate
    util::Matrix f;
    util::Matrix o;
    util::Matrix g;
  };

  // What Backward leaves for AccumulateGrads, rows aligned with x.
  struct Grads {
    util::Matrix di, df, d_o, dg;  // gate pre-activation gradients
    util::Matrix h_prev;           // h_{t-1} (zeros at a lane's first step)
  };

  Lstm(const std::string& name, int in_dim, int hidden_dim, util::Rng* rng);

  Lstm(const Lstm&) = delete;
  Lstm& operator=(const Lstm&) = delete;

  // Batch layout, cache and thread-safety as nn::Gru::Forward.
  void Forward(const util::Matrix& x, const std::vector<int>& lengths,
               Cache* cache, util::Matrix* h_out) const;

  // As nn::Gru::Backward: fills *grads and dL/dx, touches no parameter.
  void Backward(const util::Matrix& x, const std::vector<int>& lengths,
                const Cache& cache, const util::Matrix& grad_h, Grads* grads,
                util::Matrix* grad_x) const;

  // Adds the parameter gradients of rows [row, row + rows) (one lane).
  void AccumulateGrads(const util::Matrix& x, const Grads& grads, int row,
                       int rows);

  // One sequence (x: T x in_dim), as a batch of one lane.
  void Forward(const util::Matrix& x, Cache* cache, util::Matrix* h_out) const {
    Forward(x, {x.rows()}, cache, h_out);
  }
  // Backward of that one-lane batch plus its parameter gradients.
  void Backward(const util::Matrix& x, const Cache& cache,
                const util::Matrix& grad_h, util::Matrix* grad_x);

  std::vector<Parameter*> Params() {
    return {&wi_, &ui_, &bi_, &wf_, &uf_, &bf_,
            &wo_, &uo_, &bo_, &wg_, &ug_, &bg_};
  }

  int in_dim() const { return wi_.value.cols(); }
  int hidden_dim() const { return wi_.value.rows(); }

 private:
  Parameter wi_, ui_, bi_;
  Parameter wf_, uf_, bf_;
  Parameter wo_, uo_, bo_;
  Parameter wg_, ug_, bg_;
};

}  // namespace lncl::nn

