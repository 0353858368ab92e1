#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/ner_rules.h"
#include "core/sentiment_rules.h"
#include "data/bio.h"
#include "logic/formula.h"
#include "logic/posterior_reg.h"
#include "logic/rule.h"
#include "logic/sequence_rules.h"
#include "logic/soft_logic.h"
#include "util/rng.h"

namespace lncl::logic {
namespace {

// ----------------------------------------------- Lukasiewicz operators --

// Property sweep over a grid of soft truth values.
class LukasiewiczTest : public testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LukasiewiczTest, OperatorsStayInUnitInterval) {
  const auto [a, b] = GetParam();
  for (double v : {LukAnd(a, b), LukOr(a, b), LukNot(a), LukImplies(a, b)}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_P(LukasiewiczTest, Commutativity) {
  const auto [a, b] = GetParam();
  EXPECT_DOUBLE_EQ(LukAnd(a, b), LukAnd(b, a));
  EXPECT_DOUBLE_EQ(LukOr(a, b), LukOr(b, a));
}

TEST_P(LukasiewiczTest, DeMorgan) {
  const auto [a, b] = GetParam();
  EXPECT_NEAR(LukNot(LukAnd(a, b)), LukOr(LukNot(a), LukNot(b)), 1e-12);
  EXPECT_NEAR(LukNot(LukOr(a, b)), LukAnd(LukNot(a), LukNot(b)), 1e-12);
}

TEST_P(LukasiewiczTest, ImplicationAsDisjunction) {
  const auto [a, b] = GetParam();
  EXPECT_NEAR(LukImplies(a, b), LukOr(LukNot(a), b), 1e-12);
}

TEST_P(LukasiewiczTest, BooleanCornersMatchClassicalLogic) {
  const auto [a, b] = GetParam();
  if ((a == 0.0 || a == 1.0) && (b == 0.0 || b == 1.0)) {
    EXPECT_DOUBLE_EQ(LukAnd(a, b), a * b);
    EXPECT_DOUBLE_EQ(LukOr(a, b), std::min(1.0, a + b));
    EXPECT_DOUBLE_EQ(LukImplies(a, b), (a == 1.0 && b == 0.0) ? 0.0 : 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LukasiewiczTest,
    testing::Values(std::make_pair(0.0, 0.0), std::make_pair(0.0, 1.0),
                    std::make_pair(1.0, 0.0), std::make_pair(1.0, 1.0),
                    std::make_pair(0.3, 0.8), std::make_pair(0.5, 0.5),
                    std::make_pair(0.9, 0.2), std::make_pair(0.1, 0.1),
                    std::make_pair(0.7, 0.7)));

TEST(SoftLogicTest, PaperVotingExample) {
  // I(friend) = 1, I(votesFor) = 0.9 => conjunction = 0.9 (Section III-A).
  EXPECT_NEAR(LukAnd(1.0, 0.9), 0.9, 1e-12);
}

TEST(SoftLogicTest, ClampsOutOfRangeInput) {
  EXPECT_DOUBLE_EQ(LukNot(1.7), 0.0);
  EXPECT_DOUBLE_EQ(LukAnd(1.5, 0.8), 0.8);
}

// ---------------------------------------------------------------- Formula --

TEST(FormulaTest, AtomAndConstantEval) {
  const auto f = Formula::Atom(1);
  EXPECT_DOUBLE_EQ(f->Eval({0.2, 0.7}), 0.7);
  EXPECT_DOUBLE_EQ(Formula::Constant(0.4)->Eval({}), 0.4);
  EXPECT_DOUBLE_EQ(Formula::Constant(2.0)->Eval({}), 1.0);  // clamped
}

TEST(FormulaTest, CompositeEvaluation) {
  // (a & b) -> c
  const auto f = Formula::Implies(
      Formula::And(Formula::Atom(0), Formula::Atom(1)), Formula::Atom(2));
  EXPECT_DOUBLE_EQ(f->Eval({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(f->Eval({1.0, 1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(f->Eval({1.0, 0.9, 0.5}), LukImplies(0.9, 0.5));
  EXPECT_EQ(f->MaxAtomIndex(), 2);
}

TEST(FormulaTest, DistanceToSatisfaction) {
  const auto f = Formula::Implies(Formula::Atom(0), Formula::Atom(1));
  EXPECT_DOUBLE_EQ(f->DistanceToSatisfaction({1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(f->DistanceToSatisfaction({1.0, 0.0}), 1.0);
  EXPECT_NEAR(f->DistanceToSatisfaction({1.0, 0.6}), 0.4, 1e-12);
}

TEST(FormulaTest, ToStringRendering) {
  const auto f = Formula::Implies(
      Formula::And(Formula::Atom(0, "friend(B,A)"),
                   Formula::Atom(1, "votesFor(A,P)")),
      Formula::Atom(2, "votesFor(B,P)"));
  EXPECT_EQ(f->ToString(),
            "((friend(B,A) & votesFor(A,P)) -> votesFor(B,P))");
  EXPECT_EQ(Formula::Not(Formula::Atom(0, "x"))->ToString(), "!x");
}

// ----------------------------------------------------------------- Rules --

TEST(RuleSetTest, PenaltyIsWeightedDistanceSum) {
  RuleSet rules;
  rules.Add(Formula::Implies(Formula::Atom(0), Formula::Atom(1)), 0.8, "r1");
  rules.Add(Formula::Atom(1), 0.5, "r2");
  // atoms = {1, 0.25}: r1 distance = 0.75, r2 distance = 0.75.
  EXPECT_NEAR(rules.Penalty({1.0, 0.25}), 0.8 * 0.75 + 0.5 * 0.75, 1e-12);
  EXPECT_EQ(rules.size(), 2);
  EXPECT_EQ(rules.MaxAtomIndex(), 1);
}

TEST(RuleSetTest, EmptyRuleSetNoPenalty) {
  RuleSet rules;
  EXPECT_DOUBLE_EQ(rules.Penalty({0.0}), 0.0);
  EXPECT_TRUE(rules.empty());
}

// --------------------------------------------------- Posterior projection --

TEST(PosteriorRegTest, ZeroCReturnsInput) {
  util::Matrix q(1, 3);
  q(0, 0) = 0.2f; q(0, 1) = 0.5f; q(0, 2) = 0.3f;
  util::Matrix pen(1, 3);
  pen(0, 0) = 1.0f;
  const util::Matrix out = ProjectIndependent(q, pen, 0.0);
  for (int k = 0; k < 3; ++k) EXPECT_NEAR(out(0, k), q(0, k), 1e-6);
}

TEST(PosteriorRegTest, ZeroPenaltyReturnsInput) {
  util::Matrix q(2, 2);
  q(0, 0) = 0.7f; q(0, 1) = 0.3f;
  q(1, 0) = 0.1f; q(1, 1) = 0.9f;
  util::Matrix pen(2, 2);
  const util::Matrix out = ProjectIndependent(q, pen, 5.0);
  for (int r = 0; r < 2; ++r) {
    for (int k = 0; k < 2; ++k) EXPECT_NEAR(out(r, k), q(r, k), 1e-6);
  }
}

TEST(PosteriorRegTest, MatchesClosedFormEq15) {
  // Direct check against q_b(t) = q_a(t) exp(-C w (1 - v(t))) / Z.
  const util::Vector q = {0.6f, 0.4f};
  const util::Vector pen = {0.8f, 0.1f};  // = sum_l w_l (1 - v_l)
  const double C = 2.0;
  const util::Vector out = ProjectCategorical(q, pen, C);
  const double u0 = 0.6 * std::exp(-C * 0.8);
  const double u1 = 0.4 * std::exp(-C * 0.1);
  EXPECT_NEAR(out[0], u0 / (u0 + u1), 1e-5);
  EXPECT_NEAR(out[1], u1 / (u0 + u1), 1e-5);
}

TEST(PosteriorRegTest, PenalizedClassLosesMass) {
  const util::Vector q = {0.5f, 0.5f};
  const util::Vector out = ProjectCategorical(q, {1.0f, 0.0f}, 5.0);
  EXPECT_LT(out[0], 0.05);
  EXPECT_GT(out[1], 0.95);
}

TEST(PosteriorRegTest, RowsNormalized) {
  util::Rng rng(3);
  util::Matrix q(4, 5), pen(4, 5);
  for (int r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int k = 0; k < 5; ++k) {
      q(r, k) = static_cast<float>(rng.Uniform(0.01, 1.0));
      sum += q(r, k);
      pen(r, k) = static_cast<float>(rng.Uniform(0.0, 2.0));
    }
    for (int k = 0; k < 5; ++k) q(r, k) /= sum;
  }
  const util::Matrix out = ProjectIndependent(q, pen, 3.0);
  for (int r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (int k = 0; k < 5; ++k) {
      EXPECT_GE(out(r, k), 0.0f);
      sum += out(r, k);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(PosteriorRegTest, AllPenalizedFallsBackToInput) {
  // exp(-C * huge) underflows for every class: keep q.
  const util::Vector q = {0.3f, 0.7f};
  const util::Vector out = ProjectCategorical(q, {1e5f, 1e5f}, 10.0);
  EXPECT_NEAR(out[0], 0.3, 1e-5);
  EXPECT_NEAR(out[1], 0.7, 1e-5);
}

TEST(PosteriorRegTest, NullProjectorIsIdentity) {
  NullProjector null;
  util::Matrix q(1, 2);
  q(0, 0) = 0.9f; q(0, 1) = 0.1f;
  data::Instance x;
  const util::Matrix out = null.Project(x, q, 5.0);
  EXPECT_NEAR(out(0, 0), 0.9, 1e-6);
}

// --------------------------------------------------- Sequence projection --

util::Matrix RandomDistributions(int rows, int k, util::Rng* rng) {
  util::Matrix q(rows, k);
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < k; ++c) {
      q(r, c) = static_cast<float>(rng->Uniform(0.05, 1.0));
      sum += q(r, c);
    }
    for (int c = 0; c < k; ++c) q(r, c) /= sum;
  }
  return q;
}

class SequenceProjectorTest : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SequenceProjectorTest, ForwardBackwardMatchesBruteForce) {
  const auto [t_len, k] = GetParam();
  util::Rng rng(100 + t_len * 10 + k);
  util::Matrix pen(k, k);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      pen(a, b) = static_cast<float>(rng.Uniform(0.0, 1.0));
    }
  }
  const SequenceRuleProjector proj(pen);
  const util::Matrix q = RandomDistributions(t_len, k, &rng);
  data::Instance x;
  const util::Matrix fast = proj.Project(x, q, 2.5);
  const util::Matrix slow = proj.ProjectBruteForce(q, 2.5);
  for (int t = 0; t < t_len; ++t) {
    for (int c = 0; c < k; ++c) {
      EXPECT_NEAR(fast(t, c), slow(t, c), 1e-4)
          << "T=" << t_len << " K=" << k << " at (" << t << "," << c << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SequenceProjectorTest,
    testing::Values(std::make_pair(1, 3), std::make_pair(2, 3),
                    std::make_pair(4, 3), std::make_pair(6, 2),
                    std::make_pair(5, 4), std::make_pair(3, 5)));

TEST(SequenceProjectorTest, ZeroPenaltyIsIdentity) {
  util::Rng rng(9);
  const int k = 4;
  SequenceRuleProjector proj(util::Matrix(k, k));
  const util::Matrix q = RandomDistributions(6, k, &rng);
  data::Instance x;
  const util::Matrix out = proj.Project(x, q, 5.0);
  for (int t = 0; t < 6; ++t) {
    for (int c = 0; c < k; ++c) EXPECT_NEAR(out(t, c), q(t, c), 1e-5);
  }
}

TEST(SequenceProjectorTest, EmptySequenceSafe) {
  SequenceRuleProjector proj(util::Matrix(3, 3));
  data::Instance x;
  const util::Matrix out = proj.Project(x, util::Matrix(0, 3), 5.0);
  EXPECT_EQ(out.rows(), 0);
}


// The closed form (Eq. 15) must MINIMIZE the Eq. 14 objective
//   KL(q_b || q_a) + C * sum_k q_b(k) * pen(k)
// (with the optimal slack/eta = C, the per-item objective reduces to this).
// Property test: no random distribution on the simplex does better.
TEST(PosteriorRegTest, ClosedFormMinimizesTheVariationalObjective) {
  util::Rng rng(123);
  const int k = 4;
  const double C = 2.0;
  auto objective = [&](const util::Vector& qb, const util::Vector& qa,
                       const util::Vector& pen) {
    double val = 0.0;
    for (int m = 0; m < k; ++m) {
      if (qb[m] > 1e-9) {
        val += qb[m] * std::log(qb[m] / std::max(qa[m], 1e-12f));
      }
      val += C * qb[m] * pen[m];
    }
    return val;
  };
  for (int trial = 0; trial < 30; ++trial) {
    util::Vector qa(k), pen(k);
    float sum = 0.0f;
    for (int m = 0; m < k; ++m) {
      qa[m] = static_cast<float>(rng.Uniform(0.05, 1.0));
      sum += qa[m];
      pen[m] = static_cast<float>(rng.Uniform(0.0, 1.5));
    }
    for (int m = 0; m < k; ++m) qa[m] /= sum;
    const util::Vector qb = ProjectCategorical(qa, pen, C);
    const double best = objective(qb, qa, pen);
    for (int probe = 0; probe < 25; ++probe) {
      util::Vector other(k);
      float osum = 0.0f;
      for (int m = 0; m < k; ++m) {
        other[m] = static_cast<float>(rng.Uniform(0.01, 1.0));
        osum += other[m];
      }
      for (int m = 0; m < k; ++m) other[m] /= osum;
      EXPECT_GE(objective(other, qa, pen), best - 1e-5)
          << "trial " << trial << " probe " << probe;
    }
  }
}

TEST(LukasiewiczPropertyTest, ConjunctionAndDisjunctionAssociative) {
  util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const double a = rng.Uniform(), b = rng.Uniform(), c = rng.Uniform();
    EXPECT_NEAR(LukAnd(a, LukAnd(b, c)), LukAnd(LukAnd(a, b), c), 1e-12);
    EXPECT_NEAR(LukOr(a, LukOr(b, c)), LukOr(LukOr(a, b), c), 1e-12);
    // Monotonicity of implication in the consequent.
    const double d = rng.Uniform();
    if (c <= d) {
      EXPECT_LE(LukImplies(a, c), LukImplies(a, d) + 1e-12);
    }
  }
}

TEST(SequenceProjectorTest, ProjectionNeverBreaksNormalization) {
  util::Rng rng(11);
  const int k = 9;
  const SequenceRuleProjector proj(core::BuildNerTransitionPenalty());
  for (int trial = 0; trial < 10; ++trial) {
    const int t_len = 1 + rng.UniformInt(20);
    const util::Matrix q = RandomDistributions(t_len, k, &rng);
    data::Instance x;
    const util::Matrix out = proj.Project(x, q, 5.0);
    for (int t = 0; t < t_len; ++t) {
      double sum = 0.0;
      for (int m = 0; m < k; ++m) {
        EXPECT_GE(out(t, m), 0.0f);
        sum += out(t, m);
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}


TEST(FormulaTest, DeepNestingEvaluates) {
  // ((((a0 & a1) | a2) -> a3) & !a0)
  auto f = Formula::And(
      Formula::Implies(
          Formula::Or(Formula::And(Formula::Atom(0), Formula::Atom(1)),
                      Formula::Atom(2)),
          Formula::Atom(3)),
      Formula::Not(Formula::Atom(0)));
  EXPECT_EQ(f->MaxAtomIndex(), 3);
  // a0=0: negation true; antecedent = a2; implication = min(1, 1-a2+a3).
  EXPECT_NEAR(f->Eval({0.0, 0.9, 0.4, 0.2}),
              LukAnd(LukImplies(0.4, 0.2), 1.0), 1e-12);
}

TEST(RuleSetTest, PenaltyScalesLinearlyInWeights) {
  RuleSet light, heavy;
  const auto formula = Formula::Implies(Formula::Atom(0), Formula::Atom(1));
  light.Add(formula, 0.25, "light");
  heavy.Add(formula, 1.0, "heavy");
  const std::vector<double> atoms = {1.0, 0.3};
  EXPECT_NEAR(heavy.Penalty(atoms), 4.0 * light.Penalty(atoms), 1e-12);
}

TEST(SequenceProjectorTest, StrongerCSharpensTowardValidity) {
  // The probability mass on an invalid transition should be monotonically
  // non-increasing in C.
  const SequenceRuleProjector proj(core::BuildNerTransitionPenalty());
  util::Matrix q(2, data::kNumBioLabels);
  for (int c = 0; c < data::kNumBioLabels; ++c) {
    q(0, c) = 1.0f / data::kNumBioLabels;
    q(1, c) = 1.0f / data::kNumBioLabels;
  }
  q(0, data::kO) = 0.6f;        // token 0 likely O
  q(1, data::kIOrg) = 0.6f;     // token 1 wants I-ORG: invalid after O
  data::Instance x;
  double prev = 1.0;
  for (double c_value : {0.5, 2.0, 5.0, 20.0}) {
    const util::Matrix out = proj.Project(x, q, c_value);
    EXPECT_LE(out(1, data::kIOrg), prev + 1e-6);
    prev = out(1, data::kIOrg);
  }
}

bool BytesEqual(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The nested-vector forward-backward SequenceRuleProjector::Project carried
// before it called util::ChainForwardBackward, kept as the byte reference.
util::Matrix RefProject(const util::Matrix& pen, const util::Matrix& q,
                        double C) {
  const int t_len = q.rows();
  const int k = q.cols();
  util::Matrix out(t_len, k);
  if (t_len == 0) return out;
  util::Matrix psi(k, k);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      psi(a, b) = static_cast<float>(std::exp(-C * pen(a, b)));
    }
  }
  auto normalize = [](std::vector<double>* v) {
    double sum = 0.0;
    for (double x : *v) sum += x;
    if (sum <= 1e-300) {
      for (double& x : *v) x = 1.0 / static_cast<double>(v->size());
    } else {
      for (double& x : *v) x /= sum;
    }
  };
  std::vector<std::vector<double>> alpha(t_len, std::vector<double>(k, 0.0));
  for (int c = 0; c < k; ++c) alpha[0][c] = q(0, c);
  normalize(&alpha[0]);
  for (int t = 1; t < t_len; ++t) {
    for (int b = 0; b < k; ++b) {
      double s = 0.0;
      for (int a = 0; a < k; ++a) s += alpha[t - 1][a] * psi(a, b);
      alpha[t][b] = q(t, b) * s;
    }
    normalize(&alpha[t]);
  }
  std::vector<std::vector<double>> beta(t_len, std::vector<double>(k, 1.0));
  for (int t = t_len - 2; t >= 0; --t) {
    for (int a = 0; a < k; ++a) {
      double s = 0.0;
      for (int b = 0; b < k; ++b) {
        s += psi(a, b) * q(t + 1, b) * beta[t + 1][b];
      }
      beta[t][a] = s;
    }
    normalize(&beta[t]);
  }
  for (int t = 0; t < t_len; ++t) {
    std::vector<double> marg(k);
    for (int c = 0; c < k; ++c) marg[c] = alpha[t][c] * beta[t][c];
    normalize(&marg);
    for (int c = 0; c < k; ++c) out(t, c) = static_cast<float>(marg[c]);
  }
  return out;
}

util::Matrix RandomPenalty(int k, util::Rng* rng) {
  util::Matrix pen(k, k);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      pen(a, b) = static_cast<float>(rng->Uniform(0.0, 1.0));
    }
  }
  return pen;
}

TEST(SequenceProjectorTest, MatchesNestedVectorReference) {
  util::Rng rng(15);
  const std::vector<util::Matrix> pens = {core::BuildNerTransitionPenalty(),
                                          RandomPenalty(9, &rng),
                                          RandomPenalty(3, &rng)};
  data::Instance x;
  for (const util::Matrix& pen : pens) {
    const SequenceRuleProjector proj(pen);
    for (double c_value : {0.5, 1.0, 5.0, 50.0}) {
      for (int t_len = 1; t_len <= 40; ++t_len) {
        const util::Matrix q = RandomDistributions(t_len, pen.rows(), &rng);
        ASSERT_TRUE(BytesEqual(proj.Project(x, q, c_value),
                               RefProject(pen, q, c_value)))
            << "K=" << pen.rows() << " C=" << c_value << " T=" << t_len;
      }
    }
  }
}

TEST(SequenceProjectorTest, ProjectBatchMatchesLoopedProject) {
  util::Rng rng(16);
  const SequenceRuleProjector proj(core::BuildNerTransitionPenalty());
  const int k = data::kNumBioLabels;
  std::vector<data::Instance> xs(7);
  std::vector<const data::Instance*> ptrs;
  for (const data::Instance& x : xs) ptrs.push_back(&x);
  for (double c_value : {1.0, 5.0}) {
    std::vector<util::Matrix> qs;
    for (int t_len : {14, 0, 1, 7, 40, 0, 2}) {
      qs.push_back(RandomDistributions(t_len, k, &rng));
    }
    std::vector<util::Matrix> batched = qs;
    proj.ProjectBatch(ptrs, &batched, c_value);
    ASSERT_EQ(batched.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_TRUE(BytesEqual(batched[i], proj.Project(xs[i], qs[i], c_value)))
          << "C=" << c_value << " sentence " << i;
    }
  }
  std::vector<util::Matrix> empty;
  proj.ProjectBatch({}, &empty, 5.0);
  EXPECT_TRUE(empty.empty());
}

TEST(SequenceProjectorTest, PotentialsFollowEachProjectorAndC) {
  // Each call must use its own projector's penalty at its own C, on one
  // thread: first for projectors built one after another in the same stack
  // slot (same address, different penalty, consecutive calls at equal C),
  // then for two live projectors called in turn.
  util::Rng rng(17);
  const std::vector<util::Matrix> pens = {
      core::BuildNerTransitionPenalty(), core::BuildBadNerTransitionPenalty()};
  data::Instance x;
  for (int round = 0; round < 8; ++round) {
    const int which = round % 2;
    const double c_value = (round / 2) % 2 == 0 ? 5.0 : 0.5;
    const util::Matrix q = RandomDistributions(6, data::kNumBioLabels, &rng);
    const util::Matrix want = RefProject(pens[which], q, c_value);
    const SequenceRuleProjector scoped(pens[which]);
    EXPECT_TRUE(BytesEqual(scoped.Project(x, q, c_value), want))
        << "Project, round " << round;
    std::vector<util::Matrix> batch = {q};
    scoped.ProjectBatch({&x}, &batch, c_value);
    EXPECT_TRUE(BytesEqual(batch[0], want)) << "ProjectBatch, round " << round;
  }
  const SequenceRuleProjector first(pens[0]);
  const SequenceRuleProjector second(pens[1]);
  const SequenceRuleProjector* live[] = {&first, &second};
  for (int round = 0; round < 8; ++round) {
    const int which = round % 2;
    const double c_value = (round / 2) % 2 == 0 ? 5.0 : 0.5;
    const util::Matrix q = RandomDistributions(6, data::kNumBioLabels, &rng);
    EXPECT_TRUE(BytesEqual(live[which]->Project(x, q, c_value),
                           RefProject(pens[which], q, c_value)))
        << "live projectors, round " << round;
  }
}

// -------------------------------------------------------- NER rule builds --

TEST(NerRulesTest, ValidityPenaltyFreesValidTransitions) {
  const util::Matrix pen = core::BuildNerTransitionPenalty();
  // Valid predecessors of I-ORG are free.
  EXPECT_NEAR(pen(data::kBOrg, data::kIOrg), 0.0, 1e-6);
  EXPECT_NEAR(pen(data::kIOrg, data::kIOrg), 0.0, 1e-6);
  // Invalid predecessors are fully penalized.
  EXPECT_NEAR(pen(data::kO, data::kIOrg), 1.0, 1e-6);
  EXPECT_NEAR(pen(data::kBPer, data::kIOrg), 1.0, 1e-6);
  EXPECT_NEAR(pen(data::kIMisc, data::kIOrg), 1.0, 1e-6);
  // Transitions into non-inside labels are unconstrained.
  EXPECT_NEAR(pen(data::kO, data::kBPer), 0.0, 1e-6);
  EXPECT_NEAR(pen(data::kIPer, data::kO), 0.0, 1e-6);
  EXPECT_NEAR(pen(data::kO, data::kO), 0.0, 1e-6);
}

TEST(NerRulesTest, WeightedPenaltyMatchesPaperWeights) {
  const util::Matrix pen = core::BuildNerTransitionPenaltyWeighted(0.8, 0.2);
  // Transition into I-ORG under the literal Eqs. 18-19 reading.
  EXPECT_NEAR(pen(data::kBOrg, data::kIOrg), 0.2, 1e-6);  // rule 19 violated
  EXPECT_NEAR(pen(data::kIOrg, data::kIOrg), 0.8, 1e-6);  // rule 18 violated
  EXPECT_NEAR(pen(data::kO, data::kIOrg), 1.0, 1e-6);     // both violated
  EXPECT_NEAR(pen(data::kO, data::kBPer), 0.0, 1e-6);
}

TEST(NerRulesTest, BadRulePenalizesInsideContinuation) {
  const util::Matrix pen = core::BuildBadNerTransitionPenalty();
  EXPECT_NEAR(pen(data::kBOrg, data::kIOrg), 0.0, 1e-6);
  EXPECT_NEAR(pen(data::kIOrg, data::kIOrg), 1.0, 1e-6);  // the bad part
  EXPECT_NEAR(pen(data::kO, data::kIOrg), 1.0, 1e-6);
}

TEST(NerRulesTest, ProjectionRepairsInvalidTransition) {
  // Token 1 is ambiguous between I-ORG (slightly preferred) and I-PER; token
  // 0 is clearly B-PER. The transition rules should flip token 1 to I-PER.
  auto proj = core::MakeNerRuleProjector();
  util::Matrix q(2, data::kNumBioLabels);
  for (int c = 0; c < data::kNumBioLabels; ++c) {
    q(0, c) = 0.01f;
    q(1, c) = 0.01f;
  }
  q(0, data::kBPer) = 0.92f;
  q(1, data::kIOrg) = 0.47f;
  q(1, data::kIPer) = 0.45f;
  data::Instance x;
  const util::Matrix out = proj->Project(x, q, 5.0);
  EXPECT_GT(out(1, data::kIPer), out(1, data::kIOrg));
  // Token 0 stays B-PER.
  EXPECT_GT(out(0, data::kBPer), 0.5f);
}

// --------------------------------------------------- Sentiment but-rule --

TEST(SentimentRulesTest, RuleSetEncodesPaperRules) {
  core::SentimentButRule rule(nullptr, /*marker_token=*/1);
  ASSERT_EQ(rule.rules().size(), 2);
  // For t = +: atoms {1, pb+, 0, pb-} -> penalty = 1 * (1 - pb+).
  EXPECT_NEAR(rule.rules().Penalty({1.0, 0.7, 0.0, 0.3}), 0.3, 1e-9);
  // For t = -: atoms {0, pb+, 1, pb-} -> penalty = 1 - pb-.
  EXPECT_NEAR(rule.rules().Penalty({0.0, 0.7, 1.0, 0.3}), 0.7, 1e-9);
}

}  // namespace
}  // namespace lncl::logic
