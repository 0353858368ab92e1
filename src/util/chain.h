#pragma once

#include "util/matrix.h"

namespace lncl::util {

// Exact smoothing on a discrete hidden Markov chain.
//
// Inputs: initial distribution `prior` (K), row-stochastic transition matrix
// `transition` (K x K), and per-step emission likelihoods `emission`
// (T x K; entry (t, m) = p(observations at step t | state m), any positive
// scale). Outputs: posterior state marginals gamma (T x K) and, when
// `xi_sum` is non-null, the summed pairwise posteriors
// sum_t p(s_t = a, s_{t+1} = b | obs) accumulated *into* xi_sum (callers
// zero it once and accumulate across instances for an EM M-step).
//
// Messages are locally renormalized, so long sequences are numerically
// safe. Used by the sequence truth-inference methods (HMM-Crowd, BSC-seq),
// the NER rule projector (logic::SequenceRuleProjector, Eq. 15), and the
// linear-chain CRF.
void ChainForwardBackward(const Vector& prior, const Matrix& transition,
                          const Matrix& emission, Matrix* gamma,
                          Matrix* xi_sum);

// Viterbi decoding on the same parameterization: returns the most probable
// state sequence. `path` is resized to emission.rows().
void ChainViterbi(const Vector& prior, const Matrix& transition,
                  const Matrix& emission, std::vector<int>* path);

}  // namespace lncl::util

