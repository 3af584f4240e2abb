// Tests for the synthetic data generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/problem.h"
#include "data/classification.h"
#include "data/mean_estimation.h"
#include "data/regression.h"
#include "linalg/decompose.h"
#include "redundancy/redundancy.h"
#include "rng/rng.h"
#include "util/error.h"
#include "util/subsets.h"

using namespace redopt;
using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------- Regression

TEST(RegressionData, PaperMatrixShapeAndRedundancy) {
  const Matrix a = data::paper_matrix();
  EXPECT_EQ(a.rows(), 6u);
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_TRUE(redundancy::regression_rank_condition(a, 1));
}

TEST(RegressionData, RedundantMatrixSatisfiesRankCondition) {
  rng::Rng rng(1);
  for (auto [n, d, f] : {std::tuple<std::size_t, std::size_t, std::size_t>{8, 3, 2},
                         {10, 4, 2},
                         {6, 2, 2}}) {
    const Matrix a = data::redundant_matrix(n, d, f, rng);
    EXPECT_EQ(a.rows(), n);
    EXPECT_EQ(a.cols(), d);
    EXPECT_TRUE(redundancy::regression_rank_condition(a, f));
  }
}

TEST(RegressionData, RedundantMatrixRejectsInfeasibleShapes) {
  rng::Rng rng(2);
  EXPECT_THROW(data::redundant_matrix(5, 2, 2, rng), redopt::PreconditionError);  // n-2f < d
  EXPECT_THROW(data::redundant_matrix(4, 1, 2, rng), redopt::PreconditionError);  // n <= 2f
}

namespace {

/// The rank condition by definition: one pivoted QR per (n - 2f)-row
/// subset.  regression_rank_condition counts rows on hyperplanes instead;
/// this enumeration is the oracle it must agree with.
bool subset_rank_oracle(const Matrix& a, std::size_t f, double rel_tol = 1e-10) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  REDOPT_REQUIRE(n > 2 * f, "rank condition requires n > 2f");
  if (n - 2 * f < d) return false;
  bool ok = true;
  util::for_each_subset(n, n - 2 * f, [&](const std::vector<std::size_t>& rows) {
    if (linalg::rank(a.select_rows(rows), rel_tol) < d) {
      ok = false;
      return false;
    }
    return true;
  });
  return ok;
}

/// An n x d draw in the generator's range: unit rows, then (for most
/// draws) a planted degeneracy — rows moved onto one random hyperplane,
/// rows made parallel, or rows zeroed — sized around the n - 2f rows a
/// subset holds, so both verdicts occur.
Matrix cross_check_draw(rng::Rng& rng, std::size_t n, std::size_t d, std::size_t f) {
  Matrix a(n, d);
  for (std::size_t r = 0; r < n; ++r) a.set_row(r, Vector(rng.unit_sphere(d)));
  const auto kind = rng.uniform_int(0, 3);
  std::size_t count = n - 2 * f;  // the rows one subset holds, give or take one
  const auto jitter = rng.uniform_int(-1, 1);
  if (jitter < 0 && count > 0) --count;
  if (jitter > 0 && count < n) ++count;
  const std::vector<std::size_t> order = rng.permutation(n);
  if (kind == 1) {  // `count` rows on one hyperplane through the origin
    const Vector normal(rng.unit_sphere(d));
    for (std::size_t k = 0; k < count; ++k) {
      Vector row = a.row(order[k]);
      row -= normal * linalg::dot(row, normal);
      a.set_row(order[k], row * rng.uniform(0.5, 2.0));
    }
  } else if (kind == 2) {  // `count` rows parallel to the first
    const Vector base = a.row(order[0]);
    for (std::size_t k = 1; k < count; ++k) a.set_row(order[k], base * rng.uniform(-2.0, 2.0));
  } else if (kind == 3) {  // a few zero rows
    const std::size_t zeros = static_cast<std::size_t>(rng.uniform_int(1, 2 * f + 1));
    for (std::size_t k = 0; k < std::min(zeros, n); ++k) a.set_row(order[k], Vector(d));
  }
  return a;
}

}  // namespace

TEST(RankConditionCrossCheck, AgreesWithSubsetEnumerationOnGeneratorRangeDraws) {
  rng::Rng rng(20260);
  std::size_t holds = 0;
  std::size_t fails = 0;
  for (std::size_t draw = 0; draw < 10000; ++draw) {
    const auto f = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto n_min = static_cast<std::int64_t>(std::max<std::size_t>(4, 2 * f + 1));
    const auto n = static_cast<std::size_t>(rng.uniform_int(n_min, 16));
    const Matrix a = cross_check_draw(rng, n, d, f);
    const bool expected = subset_rank_oracle(a, f);
    ASSERT_EQ(data::regression_rank_condition(a, f), expected)
        << "draw " << draw << ": n=" << n << " d=" << d << " f=" << f << "\n" << a.to_string();
    ++(expected ? holds : fails);
  }
  // Both verdicts are exercised.
  EXPECT_GT(holds, 2000u);
  EXPECT_GT(fails, 2000u);
}

TEST(RankConditionCrossCheck, AgreesOnBuiltDegenerateCases) {
  const Matrix paper = data::paper_matrix();
  const Matrix parallel{{1.0, 0.0}, {2.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {1.0, -1.0}, {2.0, 1.0}};
  std::vector<std::tuple<Matrix, std::size_t>> cases;
  cases.emplace_back(paper, 1);
  cases.emplace_back(paper, 2);
  // Parallel rows (test_redundancy's case) and a line of three rows.
  cases.emplace_back(parallel, 2);
  cases.emplace_back(parallel, 1);
  cases.emplace_back(Matrix{{1.0, 0.0}, {-3.0, 0.0}, {0.5, 0.0}, {0.0, 1.0}, {1.0, 1.0}}, 1);
  // Too few rows per subset.
  cases.emplace_back(Matrix{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}}, 1);
  // Three rows in the plane z = 0.
  cases.emplace_back(Matrix{{1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 1, 1}}, 1);
  cases.emplace_back(Matrix{{1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 1, 1}, {1, -1, 2}}, 1);
  cases.emplace_back(Matrix{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {1, -1, 2}, {2, 1, 3}}, 1);
  // Zero rows.
  cases.emplace_back(Matrix{{0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}}, 1);
  cases.emplace_back(Matrix{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {1.0, -1.0}}, 1);
  cases.emplace_back(Matrix{{0.0}, {0.0}, {0.0}, {1.0}, {2.0}}, 1);
  cases.emplace_back(Matrix{{0.0}, {0.0}, {1.0}, {-1.0}, {2.0}}, 1);
  cases.emplace_back(Matrix{{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}, 0);
  // Rank-deficient as a whole, and f = 0.
  cases.emplace_back(Matrix{{1.0, 2.0}, {2.0, 4.0}, {-1.0, -2.0}, {3.0, 6.0}}, 1);
  cases.emplace_back(Matrix{{1.0, 0.0}, {0.0, 1.0}}, 0);
  cases.emplace_back(Matrix{{1.0, 0.0}, {2.0, 0.0}}, 0);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const auto& [a, f] = cases[k];
    EXPECT_EQ(data::regression_rank_condition(a, f), subset_rank_oracle(a, f)) << "case " << k;
  }
  EXPECT_TRUE(data::regression_rank_condition(paper, 1));
  EXPECT_FALSE(data::regression_rank_condition(parallel, 2));
}

TEST(RankConditionCrossCheck, AgreesOnRedundantMatrixDraws) {
  rng::Rng rng(1);
  for (auto [n, d, f] : {std::tuple<std::size_t, std::size_t, std::size_t>{8, 3, 2},
                         {10, 4, 2},
                         {6, 2, 2},
                         {6, 2, 1},
                         {16, 4, 4},
                         {16, 1, 4}}) {
    const Matrix a = data::redundant_matrix(n, d, f, rng);
    EXPECT_TRUE(subset_rank_oracle(a, f));
    EXPECT_TRUE(data::regression_rank_condition(a, f));
  }
}

TEST(RankConditionCost, StaysWithinBudgetOnWideShapes) {
  // Generic unit rows satisfy the condition, so the check cannot stop
  // early.  Enumerating the C(n, d - 1) hyperplanes spanned by rows would
  // take ~2e6 steps at (24, 12, 1), ~1e11 at (40, 20, 1) and ~1e18 at
  // (64, 32, 2).  The search reaches at most C(d - 1 + 2f, 2f) leaves
  // (78, 210 and 52360): ~1 s at the largest shape in a Release build,
  // where one QR per (n - 2f)-row subset takes ~30 s.
  rng::Rng rng(7);
  for (auto [n, d, f] : {std::tuple<std::size_t, std::size_t, std::size_t>{24, 12, 1},
                         {40, 20, 1},
                         {64, 32, 2}}) {
    Matrix a(n, d);
    for (std::size_t r = 0; r < n; ++r) a.set_row(r, Vector(rng.unit_sphere(d)));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(data::regression_rank_condition(a, f)) << n << "x" << d << " f=" << f;
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 5.0) << n << "x" << d << " f=" << f;
  }
}

TEST(RegressionData, NoiselessObservationsMatchGroundTruth) {
  rng::Rng rng(3);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  EXPECT_NEAR(linalg::distance(inst.b, linalg::matvec(inst.a, inst.x_star)), 0.0, 1e-15);
  // Every cost is zero at x_star.
  for (const auto& cost : inst.problem.costs) {
    EXPECT_NEAR(cost->value(inst.x_star), 0.0, 1e-15);
  }
}

TEST(RegressionData, NoiseLevelReflectedInObservations) {
  rng::Rng rng(4);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.5, 1, rng);
  const Vector residual = inst.b - linalg::matvec(inst.a, inst.x_star);
  EXPECT_GT(residual.norm(), 1e-3);
  EXPECT_LT(residual.norm_inf(), 5.0);  // ~ sigma * few
}

TEST(RegressionData, ArgminSolvesHonestSystem) {
  rng::Rng rng(5);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  const Vector x_h = data::regression_argmin(inst, {1, 2, 3, 4, 5});
  EXPECT_NEAR(linalg::distance(x_h, Vector{1.0, 1.0}), 0.0, 1e-10);
  EXPECT_THROW(data::regression_argmin(inst, {}), redopt::PreconditionError);
}

TEST(RegressionData, ConstantsMatchDirectEigenComputation) {
  rng::Rng rng(6);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  const std::vector<std::size_t> honest = {1, 2, 3, 4, 5};
  const auto constants = data::regression_constants(inst, honest);
  // mu = max 2||A_i||^2 over honest rows: all rows are unit norm -> 2.
  EXPECT_NEAR(constants.mu, 2.0, 1e-12);
  EXPECT_GT(constants.gamma, 0.0);
  EXPECT_LE(constants.gamma, constants.mu);  // gamma <= mu always
  // Cross-check gamma against core::strong_convexity_constant.
  const double gamma2 =
      core::strong_convexity_constant(inst.problem, honest, Vector(2));
  EXPECT_NEAR(constants.gamma, gamma2, 1e-9);
  const double mu2 = core::lipschitz_constant(inst.problem, honest, Vector(2));
  EXPECT_NEAR(constants.mu, mu2, 1e-9);
}

TEST(RegressionData, CgeAlphaFormula) {
  EXPECT_NEAR(core::cge_alpha(6, 0, 2.0, 1.0), 1.0, 1e-12);
  // alpha = 1 - (1/6)(1 + 2*2/0.5) = 1 - 1.5 = -0.5.
  EXPECT_NEAR(core::cge_alpha(6, 1, 2.0, 0.5), -0.5, 1e-12);
  EXPECT_THROW(core::cge_alpha(0, 0, 1.0, 1.0), redopt::PreconditionError);
  EXPECT_THROW(core::cge_alpha(6, 1, 1.0, 0.0), redopt::PreconditionError);
}

TEST(RegressionData, OrthonormalBlocksAreOrthonormal) {
  rng::Rng rng(20);
  const auto inst = data::make_orthonormal_regression(6, 3, 1, 0.0, Vector{1.0, 2.0, 3.0}, rng);
  EXPECT_EQ(inst.problem.num_agents(), 6u);
  for (const auto& block : inst.blocks) {
    const Matrix gram = block.gram();
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j)
        EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-10);
  }
}

TEST(RegressionData, OrthonormalInstanceHasAlphaPositive) {
  // mu = gamma = 2 exactly, so alpha = 1 - 3 f / n = 0.5 at n = 6, f = 1.
  rng::Rng rng(21);
  const auto inst = data::make_orthonormal_regression(6, 2, 1, 0.0, Vector{1.0, 1.0}, rng);
  const std::vector<std::size_t> honest = {1, 2, 3, 4, 5};
  const double mu = core::lipschitz_constant(inst.problem, honest, Vector(2));
  const double gamma = core::strong_convexity_constant(inst.problem, honest, Vector(2));
  EXPECT_NEAR(mu, 2.0, 1e-9);
  EXPECT_NEAR(gamma, 2.0, 1e-9);
  EXPECT_NEAR(core::cge_alpha(6, 1, mu, gamma), 0.5, 1e-9);
}

TEST(RegressionData, BlockArgminRecoversTruthNoiseless) {
  rng::Rng rng(22);
  const Vector x_star{0.5, -1.5};
  const auto inst = data::make_orthonormal_regression(7, 2, 2, 0.0, x_star, rng);
  const Vector x_h = data::block_regression_argmin(inst, {0, 2, 3, 5, 6});
  EXPECT_NEAR(linalg::distance(x_h, x_star), 0.0, 1e-10);
}

// ---------------------------------------------------------------- Classification

TEST(ClassificationData, ShapesAndLabels) {
  rng::Rng rng(7);
  data::ClassificationConfig cfg;
  cfg.n = 6;
  cfg.f = 1;
  cfg.d = 4;
  cfg.samples_per_agent = 20;
  cfg.test_samples = 100;
  const auto inst = data::make_classification(cfg, rng);
  EXPECT_EQ(inst.problem.num_agents(), 6u);
  EXPECT_EQ(inst.problem.dimension(), 4u);
  EXPECT_EQ(inst.test_features.rows(), 100u);
  for (std::size_t i = 0; i < inst.test_labels.size(); ++i) {
    EXPECT_TRUE(inst.test_labels[i] == 1.0 || inst.test_labels[i] == -1.0);
  }
  EXPECT_NEAR(inst.class_direction.norm(), 1.0, 1e-12);
}

TEST(ClassificationData, TrueDirectionClassifiesWell) {
  rng::Rng rng(8);
  data::ClassificationConfig cfg;
  cfg.separation = 3.0;
  const auto inst = data::make_classification(cfg, rng);
  // The generating direction itself should reach high accuracy.
  EXPECT_GT(data::test_accuracy(inst, inst.class_direction), 0.95);
  // A random orthogonal-ish direction should hover near chance.
  Vector junk(cfg.d);
  junk[0] = inst.class_direction[1];
  junk[1] = -inst.class_direction[0];
  EXPECT_LT(data::test_accuracy(inst, junk), 0.8);
}

TEST(ClassificationData, HingeVariantBuildsHingeCosts) {
  rng::Rng rng(9);
  data::ClassificationConfig cfg;
  cfg.loss = "hinge";
  cfg.n = 5;
  cfg.f = 1;
  const auto inst = data::make_classification(cfg, rng);
  EXPECT_NE(inst.problem.costs[0]->describe().find("smoothed_hinge"), std::string::npos);
}

TEST(ClassificationData, ValidatesConfig) {
  rng::Rng rng(10);
  data::ClassificationConfig cfg;
  cfg.loss = "mse";
  EXPECT_THROW(data::make_classification(cfg, rng), redopt::PreconditionError);
  cfg = {};
  cfg.n = 4;
  cfg.f = 2;
  EXPECT_THROW(data::make_classification(cfg, rng), redopt::PreconditionError);
}

TEST(ClassificationData, HeterogeneityShiftsAgentData) {
  rng::Rng rng_a(11), rng_b(11);
  data::ClassificationConfig homo;
  homo.heterogeneity = 0.0;
  data::ClassificationConfig hetero = homo;
  hetero.heterogeneity = 5.0;
  const auto inst_homo = data::make_classification(homo, rng_a);
  const auto inst_hetero = data::make_classification(hetero, rng_b);
  // Heterogeneous agents' local optima differ more: compare local gradient
  // spread at the origin as a cheap proxy.
  auto spread = [](const core::MultiAgentProblem& p) {
    std::vector<Vector> gs;
    for (const auto& c : p.costs) gs.push_back(c->gradient(Vector(p.dimension())));
    const Vector mean = linalg::mean(gs);
    double acc = 0.0;
    for (const auto& g : gs) acc += linalg::distance(g, mean);
    return acc / static_cast<double>(gs.size());
  };
  EXPECT_GT(spread(inst_hetero.problem), spread(inst_homo.problem));
}

// ---------------------------------------------------------------- Mean estimation

TEST(MeanEstimationData, HonestAggregateMinimizesAtSampleMean) {
  rng::Rng rng(12);
  const auto inst = data::make_mean_estimation(Vector{1.0, -1.0}, 0.5, 7, 2, rng);
  EXPECT_EQ(inst.problem.num_agents(), 7u);
  const std::vector<std::size_t> honest = {0, 1, 2, 3, 4};
  const Vector mean = data::honest_sample_mean(inst, honest);
  // The honest aggregate's gradient vanishes at the sample mean.
  const auto agg = inst.problem.aggregate(honest);
  EXPECT_NEAR(agg.gradient(mean).norm(), 0.0, 1e-10);
}

TEST(MeanEstimationData, SamplesConcentrateAroundTrueMean) {
  rng::Rng rng(13);
  const auto inst = data::make_mean_estimation(Vector{3.0}, 0.1, 9, 1, rng);
  const Vector mean = data::honest_sample_mean(inst, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_NEAR(mean[0], 3.0, 0.2);
}

TEST(MeanEstimationData, ValidatesArguments) {
  rng::Rng rng(14);
  EXPECT_THROW(data::make_mean_estimation(Vector{}, 1.0, 5, 1, rng), redopt::PreconditionError);
  EXPECT_THROW(data::make_mean_estimation(Vector{1.0}, -1.0, 5, 1, rng),
               redopt::PreconditionError);
  EXPECT_THROW(data::make_mean_estimation(Vector{1.0}, 1.0, 4, 2, rng),
               redopt::PreconditionError);
}
