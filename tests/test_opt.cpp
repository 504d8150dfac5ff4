// Unit tests for opt/: simplex (vs hand-solved and enumerated LPs),
// barrier interior point (vs closed-form convex optima), root finding,
// golden-section search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "opt/barrier.hpp"
#include "opt/golden.hpp"
#include "opt/roots.hpp"
#include "opt/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ro = reclaim::opt;
namespace la = reclaim::la;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), value 36.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-3.0);  // minimize the negation
  const auto y = lp.add_variable(-5.0);
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 4.0});
  lp.add_constraint({{{y, 2.0}}, ro::Relation::kLessEqual, 12.0});
  lp.add_constraint({{{x, 3.0}, {y, 2.0}}, ro::Relation::kLessEqual, 18.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-8);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
}

TEST(Simplex, EqualityAndGreaterConstraints) {
  // min x + 2y s.t. x + y = 4, x - y >= 0, y >= 1  => x = 3, y = 1? No:
  // y >= 1 via kGreaterEqual; optimum x = 3, y = 1, value 5.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, -1.0}}, ro::Relation::kGreaterEqual, 0.0});
  lp.add_constraint({{{y, 1.0}}, ro::Relation::kGreaterEqual, 1.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-8);
  EXPECT_NEAR(sol.objective, 5.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kGreaterEqual, 2.0});
  EXPECT_EQ(ro::solve_lp(lp).status, ro::LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-1.0);  // minimize -x, x unbounded above
  lp.add_constraint({{{x, -1.0}}, ro::Relation::kLessEqual, 0.0});
  EXPECT_EQ(ro::solve_lp(lp).status, ro::LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x >= 2 written as -x <= -2.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{{x, -1.0}}, ro::Relation::kLessEqual, -2.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Classic degeneracy: multiple tight constraints at the optimum.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-1.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{y, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{x, 2.0}, {y, 1.0}}, ro::Relation::kLessEqual, 2.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -1.0, 1e-8);
}

TEST(Simplex, RandomLpsAgreeWithGridOracle) {
  // 2-variable random LPs: compare against a dense grid scan of the
  // feasible box (coarse oracle, tolerant comparison).
  reclaim::util::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    ro::LinearProgram lp;
    const double cx = rng.uniform(0.1, 2.0);
    const double cy = rng.uniform(0.1, 2.0);
    const auto x = lp.add_variable(cx);
    const auto y = lp.add_variable(cy);
    // Box 0 <= x,y <= 3 plus a coupling constraint x + y >= b.
    const double b = rng.uniform(0.5, 3.5);
    lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 3.0});
    lp.add_constraint({{{y, 1.0}}, ro::Relation::kLessEqual, 3.0});
    lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kGreaterEqual, b});
    const auto sol = ro::solve_lp(lp);
    ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
    // Oracle: fill the cheaper coordinate first (capped at 3), then the
    // other one.
    const double cheap = std::min(cx, cy);
    const double dear = std::max(cx, cy);
    const double expected = cheap * std::min(b, 3.0) + dear * std::max(0.0, b - 3.0);
    EXPECT_NEAR(sol.objective, expected, 1e-6) << "trial " << trial;
  }
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicated equality row leaves a basic artificial on a zero row.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kEqual, 2.0});
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kEqual, 2.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

namespace {

/// f(x) = sum (x_i - c_i)^2, a strictly convex quadratic.
class Quadratic final : public ro::ConvexObjective {
 public:
  explicit Quadratic(la::Vector centers) : centers_(std::move(centers)) {}

  double value(const la::Vector& x) const override {
    double v = 0.0;
    for (std::size_t i = 0; i < centers_.size(); ++i)
      v += (x[i] - centers_[i]) * (x[i] - centers_[i]);
    return v;
  }
  void add_gradient(const la::Vector& x, la::Vector& grad) const override {
    for (std::size_t i = 0; i < centers_.size(); ++i)
      grad[i] += 2.0 * (x[i] - centers_[i]);
  }
  void add_hessian(const la::Vector&, la::Matrix& hess) const override {
    for (std::size_t i = 0; i < centers_.size(); ++i) hess(i, i) += 2.0;
  }

 private:
  la::Vector centers_;
};

}  // namespace

TEST(Barrier, UnconstrainedInteriorOptimum) {
  // Center (1, 2) inside the box [0,5]^2: barrier should find it.
  const Quadratic f({1.0, 2.0});
  std::vector<ro::SparseInequality> ineqs;
  for (std::size_t i = 0; i < 2; ++i) {
    ineqs.push_back({{{i, -1.0}}, 0.0});   // x_i >= 0
    ineqs.push_back({{{i, 1.0}}, 5.0});    // x_i <= 5
  }
  const auto result =
      ro::minimize_with_barrier(f, ineqs, la::Vector{2.5, 2.5});
  EXPECT_NEAR(result.x[0], 1.0, 1e-5);
  EXPECT_NEAR(result.x[1], 2.0, 1e-5);
  EXPECT_NEAR(result.objective, 0.0, 1e-6);
}

TEST(Barrier, ActiveConstraintOptimum) {
  // Center (4, 4) but x + y <= 4: optimum at (2, 2), value 8.
  const Quadratic f({4.0, 4.0});
  std::vector<ro::SparseInequality> ineqs;
  ineqs.push_back({{{0ul, 1.0}, {1ul, 1.0}}, 4.0});
  ineqs.push_back({{{0ul, -1.0}}, 0.0});
  ineqs.push_back({{{1ul, -1.0}}, 0.0});
  const auto result =
      ro::minimize_with_barrier(f, ineqs, la::Vector{1.0, 1.0});
  EXPECT_NEAR(result.x[0], 2.0, 1e-4);
  EXPECT_NEAR(result.x[1], 2.0, 1e-4);
  EXPECT_NEAR(result.objective, 8.0, 1e-4);
}

TEST(Barrier, RejectsInfeasibleStart) {
  const Quadratic f({0.0});
  std::vector<ro::SparseInequality> ineqs;
  ineqs.push_back({{{0ul, 1.0}}, 1.0});  // x <= 1
  EXPECT_THROW(
      (void)ro::minimize_with_barrier(f, ineqs, la::Vector{2.0}),
      reclaim::InvalidArgument);
}

TEST(Barrier, ReportsGapAndSteps) {
  const Quadratic f({1.0});
  std::vector<ro::SparseInequality> ineqs;
  ineqs.push_back({{{0ul, -1.0}}, 0.0});
  ineqs.push_back({{{0ul, 1.0}}, 3.0});
  const auto result = ro::minimize_with_barrier(f, ineqs, la::Vector{1.5});
  EXPECT_GT(result.newton_steps, 0u);
  EXPECT_LE(result.gap, 1e-9 * 1.0 + 1e-9);
}

TEST(Roots, FindsSimpleRoot) {
  const auto f = [](double x) { return x * x - 2.0; };
  const double root = ro::find_root(f, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
}

TEST(Roots, EndpointRoots) {
  const auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(ro::find_root(f, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ro::find_root(f, -1.0, 0.0), 0.0);
}

TEST(Roots, RequiresSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)ro::find_root(f, -1.0, 1.0), reclaim::InvalidArgument);
}

TEST(Roots, MonotoneDecreasing) {
  const auto f = [](double x) { return 1.0 - std::exp(x); };
  EXPECT_NEAR(ro::find_root(f, -2.0, 2.0), 0.0, 1e-10);
}

TEST(Golden, ConvergesOnAUnimodalObjective) {
  std::size_t calls = 0;
  const auto f = [&](double x) {
    ++calls;
    return (x - 1.3) * (x - 1.3);
  };
  const ro::GoldenPoint best = ro::golden_min(f, 0.0, 4.0, 60);
  EXPECT_NEAR(best.x, 1.3, 1e-8);
  EXPECT_EQ(best.fx, f(best.x));
  EXPECT_EQ(calls, 2u + 60u + 1u);  // 2 + iters, plus the check above
}

TEST(Golden, ReturnsTheBestPointEvaluated) {
  // +inf on the right half steers the bracket left; a narrow dip the
  // bracket walks past must still win, because it was evaluated.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> seen;
  const auto f = [&](double x) {
    const double v = x > 2.0 ? inf : (std::abs(x - 1.2) < 0.05 ? -1.0 : x);
    seen.emplace_back(x, v);
    return v;
  };
  const ro::GoldenPoint best = ro::golden_min(f, 0.0, 4.0, 30);
  double min_seen = inf;
  for (const auto& [x, v] : seen) min_seen = std::min(min_seen, v);
  EXPECT_EQ(best.fx, min_seen);
  // Ties keep the first point evaluated at that value.
  for (const auto& [x, v] : seen) {
    if (v == min_seen) {
      EXPECT_EQ(best.x, x);
      break;
    }
  }
}
