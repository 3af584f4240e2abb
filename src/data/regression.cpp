#include "data/regression.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/decompose.h"
#include "linalg/kernels.h"
#include "util/error.h"
#include "util/subsets.h"

namespace redopt::data {

namespace {

/// Depth-first search for a hyperplane through the origin that holds all
/// but at most `budget` rows of `a`.  Rows are decided in order.  A row in
/// the span of the rows already on the plane goes on it: any plane holding
/// those holds it too.  Any other row is tried on the plane, while the rows
/// on it span fewer than d - 1 dimensions, and off it, while the budget
/// lasts.  Each branch spends a dimension or a unit of budget, so the
/// search reaches at most C(d - 1 + budget, budget) leaves, each after
/// O(n d^2) work.  That is fewer than both the C(n, budget) subsets of
/// rows left off and the C(n, d - 1) hyperplanes spanned by rows.  A row
/// is in a span when its distance to it is at most rel_tol times the row's
/// own norm (so only exact zero rows are in every span): like the QR rank
/// test, the verdict does not depend on how the rows are scaled.
class PlaneSearch {
 public:
  PlaneSearch(const Matrix& a, std::size_t budget, double rel_tol)
      : a_(a),
        budget_(budget),
        rel_tol_(rel_tol),
        row_norm_(a.rows()),
        basis_((a.cols() - 1) * a.cols()),
        residual_(a.cols()) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      row_norm_[r] = std::sqrt(linalg::kernels::norm_squared(a.row_data(r), a.cols()));
    }
  }

  /// Rows [r, n) are undecided, the first k basis rows are an orthonormal
  /// basis of the rows on the plane, and `off` rows were left off it.
  bool found(std::size_t r, std::size_t k, std::size_t off) {
    const std::size_t n = a_.rows();
    const std::size_t d = a_.cols();
    for (; r < n; ++r) {
      if (n - r <= budget_ - off) return true;  // the rest can all go off
      const double dist = distance_to_span(r, k);
      if (dist <= rel_tol_ * row_norm_[r]) continue;
      if (k + 1 < d) {
        double* b = basis_.data() + k * d;
        for (std::size_t c = 0; c < d; ++c) b[c] = residual_[c] / dist;
        if (found(r + 1, k + 1, off)) return true;
      }
      if (off == budget_) return false;
      ++off;
    }
    return true;
  }

 private:
  /// Leaves row r minus its projection onto the first k basis rows in
  /// residual_ and returns that residual's norm.
  double distance_to_span(std::size_t r, std::size_t k) {
    const std::size_t d = a_.cols();
    std::copy(a_.row_data(r), a_.row_data(r) + d, residual_.begin());
    // Two Gram-Schmidt passes keep the residual orthogonal to working
    // precision.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t q = 0; q < k; ++q) {
        const double* b = basis_.data() + q * d;
        const double along = linalg::kernels::dot(residual_.data(), b, d);
        linalg::kernels::axpy(residual_.data(), -along, b, d);
      }
    }
    return std::sqrt(linalg::kernels::norm_squared(residual_.data(), d));
  }

  const Matrix& a_;
  std::size_t budget_;
  double rel_tol_;
  std::vector<double> row_norm_;
  std::vector<double> basis_;  // orthonormal rows, (d - 1) x d
  std::vector<double> residual_;
};

}  // namespace

Matrix paper_matrix() {
  // Unit-norm rows at angles k * 30 degrees.  No two rows are parallel, so
  // any four of them span R^2 — exactly the 2f-redundancy rank condition
  // for n = 6, f = 1, d = 2.  Unit rows give every agent the same
  // Lipschitz constant mu = 2 (the paper reports mu = 2 for its instance)
  // and the best achievable gamma for single-row agents at this (n, f).
  const double s3 = std::sqrt(3.0) / 2.0;
  return Matrix{{1.0, 0.0}, {s3, 0.5}, {0.5, s3}, {0.0, 1.0}, {-0.5, s3}, {-s3, 0.5}};
}

Matrix redundant_matrix(std::size_t n, std::size_t d, std::size_t f, rng::Rng& rng,
                        std::size_t max_attempts) {
  REDOPT_REQUIRE(n > 2 * f, "redundant_matrix requires n > 2f");
  REDOPT_REQUIRE(n - 2 * f >= d, "rank condition needs n - 2f >= d rows per subset");
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix a(n, d);
    for (std::size_t r = 0; r < n; ++r) {
      // Unit-norm rows (uniform on the sphere): the rank condition only
      // depends on directions, and unit rows give every agent the same
      // Lipschitz constant mu = 2, keeping instances well conditioned.
      const auto row = rng.unit_sphere(d);
      for (std::size_t c = 0; c < d; ++c) a(r, c) = row[c];
    }
    if (regression_rank_condition(a, f)) return a;
  }
  REDOPT_REQUIRE(false, "failed to draw a 2f-redundant matrix (should be measure-1)");
  return {};  // unreachable
}

bool regression_rank_condition(const linalg::Matrix& a, std::size_t f, double rel_tol) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  REDOPT_REQUIRE(n > 2 * f, "rank condition requires n > 2f");
  if (d == 0) return true;
  if (n - 2 * f < d) return false;  // too few rows to ever reach rank d
  if (linalg::rank(a, rel_tol) < d) return false;
  if (f == 0) return true;  // the one (n - 2f)-row subset is A itself
  // With rank(A) = d, some n - 2f rows have rank < d iff one hyperplane
  // through the origin holds all but at most 2f rows.
  return !PlaneSearch(a, 2 * f, rel_tol).found(0, 0, 0);
}

RegressionInstance make_regression(const Matrix& a, const Vector& x_star, double noise_sigma,
                                   std::size_t f, rng::Rng& rng) {
  REDOPT_REQUIRE(a.cols() == x_star.size(), "x_star dimension mismatch");
  REDOPT_REQUIRE(noise_sigma >= 0.0, "noise sigma must be non-negative");
  const std::size_t n = a.rows();

  RegressionInstance inst;
  inst.a = a;
  inst.x_star = x_star;
  inst.noise_sigma = noise_sigma;
  inst.b = linalg::matvec(a, x_star);
  for (std::size_t i = 0; i < n; ++i) inst.b[i] += rng.gaussian(0.0, noise_sigma);

  inst.problem.f = f;
  inst.problem.costs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.problem.costs.push_back(std::make_shared<core::LeastSquaresCost>(
        core::LeastSquaresCost::single(a.row(i), inst.b[i])));
  }
  inst.problem.validate();
  return inst;
}

BlockRegressionInstance make_orthonormal_regression(std::size_t n, std::size_t d, std::size_t f,
                                                    double noise_sigma, const Vector& x_star,
                                                    rng::Rng& rng) {
  REDOPT_REQUIRE(n > 2 * f, "orthonormal regression requires n > 2f");
  REDOPT_REQUIRE(x_star.size() == d, "x_star dimension mismatch");
  REDOPT_REQUIRE(noise_sigma >= 0.0, "noise sigma must be non-negative");

  BlockRegressionInstance inst;
  inst.x_star = x_star;
  inst.problem.f = f;
  for (std::size_t i = 0; i < n; ++i) {
    // Random orthogonal block via Gram-Schmidt on Gaussian rows.
    Matrix a(d, d);
    for (std::size_t r = 0; r < d; ++r) {
      Vector row;
      double norm = 0.0;
      do {
        row = Vector(rng.gaussian_vector(d));
        for (std::size_t p = 0; p < r; ++p) {
          const Vector prev = a.row(p);
          row -= prev * linalg::dot(row, prev);
        }
        norm = row.norm();
      } while (norm < 1e-8);  // re-draw on (measure-zero) degeneracy
      a.set_row(r, row / norm);
    }
    Vector b = linalg::matvec(a, x_star);
    for (auto& c : b) c += rng.gaussian(0.0, noise_sigma);
    inst.problem.costs.push_back(std::make_shared<core::LeastSquaresCost>(a, b));
    inst.blocks.push_back(std::move(a));
    inst.observations.push_back(std::move(b));
  }
  inst.problem.validate();
  return inst;
}

Vector block_regression_argmin(const BlockRegressionInstance& instance,
                               const std::vector<std::size_t>& honest) {
  REDOPT_REQUIRE(!honest.empty(), "block regression argmin over empty agent set");
  const std::size_t d = instance.x_star.size();
  Matrix stacked(honest.size() * d, d);
  Vector b(honest.size() * d);
  std::size_t r = 0;
  for (std::size_t id : honest) {
    REDOPT_REQUIRE(id < instance.blocks.size(), "agent id out of range");
    for (std::size_t br = 0; br < d; ++br, ++r) {
      for (std::size_t c = 0; c < d; ++c) stacked(r, c) = instance.blocks[id](br, c);
      b[r] = instance.observations[id][br];
    }
  }
  return linalg::QrDecomposition(stacked).solve_least_squares(b);
}

Vector regression_argmin(const RegressionInstance& instance,
                         const std::vector<std::size_t>& honest) {
  REDOPT_REQUIRE(!honest.empty(), "regression argmin over empty agent set");
  const Matrix a_h = instance.a.select_rows(honest);
  Vector b_h(honest.size());
  for (std::size_t i = 0; i < honest.size(); ++i) b_h[i] = instance.b[honest[i]];
  linalg::QrDecomposition qr(a_h);
  REDOPT_REQUIRE(qr.rank() == instance.a.cols(),
                 "honest observation matrix is rank-deficient; x_H not unique");
  return qr.solve_least_squares(b_h);
}

RegressionConstants regression_constants(const RegressionInstance& instance,
                                         const std::vector<std::size_t>& honest) {
  const std::size_t n = instance.problem.num_agents();
  const std::size_t f = instance.problem.f;
  REDOPT_REQUIRE(honest.size() >= n - f, "need at least n - f honest agents");

  RegressionConstants out;
  // mu: per-agent Hessian is 2 A_i^T A_i (rank one); largest eigenvalue is
  // 2 ||A_i||^2.
  for (std::size_t id : honest) {
    const Vector row = instance.a.row(id);
    out.mu = std::max(out.mu, 2.0 * row.norm_squared());
  }
  // gamma: smallest eigenvalue of the average Hessian over every
  // (n - f)-subset of the honest agents.
  out.gamma = std::numeric_limits<double>::infinity();
  util::for_each_subset_of(honest, n - f, [&](const std::vector<std::size_t>& subset) {
    Matrix gram = instance.a.select_rows(subset).gram();
    gram *= 2.0 / static_cast<double>(subset.size());
    out.gamma = std::min(out.gamma, linalg::min_eigenvalue(gram));
    return true;
  });
  return out;
}

}  // namespace redopt::data
