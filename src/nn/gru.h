#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// Gated recurrent unit over a token sequence (Cho et al., 2014):
//
//   z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)        (update gate)
//   r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)        (reset gate)
//   c_t = tanh   (Wc x_t + Uc (r_t . h_{t-1}) + bc)  (candidate)
//   h_t = (1 - z_t) . h_{t-1} + z_t . c_t
//
// The initial hidden state is zero. Forward and Backward run over a
// variable-length batch: `lengths[b]` rows belong to lane b, the lanes sorted
// by non-increasing length and their rows stored lane by lane. At step t the
// lanes still running are then a prefix of the batch, so every recurrent
// product is one [n_t, H] GEMM. The kernels compute each output row
// independently of the row count (util/gemm_kernel.h), so a lane's results
// are byte-for-byte those of a batch holding that lane alone — the B = 1
// overloads below are exactly that batch.
class Gru {
 public:
  // Gate activations of a training forward, rows aligned with x.
  struct Cache {
    util::Matrix h;  // hidden states
    util::Matrix z;  // update gates
    util::Matrix r;  // reset gates
    util::Matrix c;  // candidates
  };

  // What Backward leaves for AccumulateGrads, rows aligned with x: the gate
  // pre-activation gradients and the recurrent GEMM operands.
  struct Grads {
    util::Matrix dz, dr, dc;
    util::Matrix h_prev;  // h_{t-1} (zeros at a lane's first step)
    util::Matrix rh;      // r_t . h_{t-1}
  };

  Gru(const std::string& name, int in_dim, int hidden_dim, util::Rng* rng);

  Gru(const Gru&) = delete;
  Gru& operator=(const Gru&) = delete;

  // x: rows x in_dim in the batch layout above. h_out gets the hidden states
  // in the same layout. `cache` is optional (null for inference); when set,
  // the states live in cache->h and h_out may point at it to skip the copy.
  // Scratch is per-thread, so concurrent calls on one layer are safe.
  void Forward(const util::Matrix& x, const std::vector<int>& lengths,
               Cache* cache, util::Matrix* h_out) const;

  // BPTT over a forward's batch: grad_h = dL/dh for every row. Fills *grads
  // and writes dL/dx when grad_x is non-null; touches no parameter, so lane
  // groups may run concurrently.
  void Backward(const util::Matrix& x, const std::vector<int>& lengths,
                const Cache& cache, const util::Matrix& grad_h, Grads* grads,
                util::Matrix* grad_x) const;

  // Adds the parameter gradients of rows [row, row + rows) — one lane of a
  // Backward — to the parameters. Callers add lanes in the order their
  // gradients must sum in.
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
    return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wc_, &uc_, &bc_};
  }

  int in_dim() const { return wz_.value.cols(); }
  int hidden_dim() const { return wz_.value.rows(); }

 private:
  Parameter wz_, uz_, bz_;
  Parameter wr_, ur_, br_;
  Parameter wc_, uc_, bc_;
};

}  // namespace lncl::nn
