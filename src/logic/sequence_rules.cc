#include "logic/sequence_rules.h"

#include <cmath>
#include <utility>
#include <vector>

#include "util/chain.h"
#include "util/check.h"

namespace lncl::logic {

SequenceRuleProjector::SequenceRuleProjector(util::Matrix pair_penalty)
    : pair_penalty_(std::move(pair_penalty)) {
  LNCL_CHECK(pair_penalty_.rows() == pair_penalty_.cols());
}

namespace {

// Transition potentials psi(a, b) = exp(-C * pen(a, b)), rounded to float.
util::Matrix Potentials(const util::Matrix& pen, double C) {
  util::Matrix psi(pen.rows(), pen.cols());
  for (int a = 0; a < pen.rows(); ++a) {
    for (int b = 0; b < pen.cols(); ++b) {
      psi(a, b) = static_cast<float>(std::exp(-C * pen(a, b)));
    }
  }
  LNCL_AUDIT_FINITE(psi);
  return psi;
}

// The Eq. 15 chain: q's rows are the unary potentials (times a prior of
// ones, which is exact) and psi the transition.
void ProjectChain(const util::Vector& ones, const util::Matrix& psi,
                  const util::Matrix& q, util::Matrix* out) {
  // Input rows are unary potentials, not necessarily normalized (the DP
  // renormalizes at every step) — so only finiteness is contracted here;
  // the output marginals must be exact simplexes (Eqs. 18-19).
  LNCL_AUDIT_FINITE(q);
  util::ChainForwardBackward(ones, psi, q, out, nullptr);
  LNCL_AUDIT_SIMPLEX(*out);
}

}  // namespace

util::Matrix SequenceRuleProjector::Project(const data::Instance&,
                                            const util::Matrix& q,
                                            double C) const {
  util::Matrix out;
  ProjectChain(util::Vector(q.cols(), 1.0f), Potentials(pair_penalty_, C), q,
               &out);
  return out;
}

void SequenceRuleProjector::ProjectBatch(
    const std::vector<const data::Instance*>& xs,
    std::vector<util::Matrix>* qs, double C) const {
  LNCL_DCHECK(qs->size() == xs.size());
  const util::Matrix psi = Potentials(pair_penalty_, C);
  const util::Vector ones(psi.rows(), 1.0f);
  // Each q's buffer becomes the next sentence's output.
  util::Matrix out;
  for (util::Matrix& q : *qs) {
    ProjectChain(ones, psi, q, &out);
    std::swap(q, out);
  }
}

util::Matrix SequenceRuleProjector::ProjectBruteForce(const util::Matrix& q,
                                                      double C) const {
  const int t_len = q.rows();
  const int k = q.cols();
  util::Matrix out(t_len, k);
  if (t_len == 0) return out;

  std::vector<int> assign(t_len, 0);
  std::vector<double> marg(static_cast<size_t>(t_len) * k, 0.0);
  double total = 0.0;
  for (;;) {
    double w = 1.0;
    for (int t = 0; t < t_len; ++t) {
      w *= q(t, assign[t]);
      if (t > 0) w *= std::exp(-C * pair_penalty_(assign[t - 1], assign[t]));
    }
    total += w;
    for (int t = 0; t < t_len; ++t) {
      marg[static_cast<size_t>(t) * k + assign[t]] += w;
    }
    // Next assignment (odometer).
    int pos = t_len - 1;
    while (pos >= 0 && ++assign[pos] == k) {
      assign[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  for (int t = 0; t < t_len; ++t) {
    for (int c = 0; c < k; ++c) {
      out(t, c) = total > 0.0
                      ? static_cast<float>(
                            marg[static_cast<size_t>(t) * k + c] / total)
                      : 1.0f / static_cast<float>(k);
    }
  }
  return out;
}

}  // namespace lncl::logic
