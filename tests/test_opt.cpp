// Unit tests for opt/: simplex (vs hand-solved and enumerated LPs),
// barrier interior point (vs closed-form convex optima, and its step
// budget on the Continuous-model programs of general execution DAGs),
// golden-section search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "graph/generators.hpp"
#include "graph/topo.hpp"
#include "opt/barrier.hpp"
#include "opt/golden.hpp"
#include "opt/simplex.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
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
  void add_hessian(const la::Vector&, la::Vector& diag) const override {
    for (std::size_t i = 0; i < centers_.size(); ++i) diag[i] += 2.0;
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
  EXPECT_GE(result.max_stage_steps, 1u);
  EXPECT_LE(result.max_stage_steps, result.newton_steps);
  EXPECT_LE(result.gap, 1e-9 * 1.0 + 1e-9);
}

namespace {

/// sum w_i^alpha / d_i^(alpha-1) over the duration variables x[n..2n) of
/// the Continuous-model program (core/continuous/numeric_solver.hpp).
class DynamicEnergy final : public ro::ConvexObjective {
 public:
  DynamicEnergy(const reclaim::graph::Digraph& g, double alpha)
      : g_(g), alpha_(alpha) {}

  double value(const la::Vector& x) const override {
    double e = 0.0;
    for (std::size_t i = 0; i < n(); ++i) {
      const double d = x[n() + i];
      if (d <= 0.0) return std::numeric_limits<double>::infinity();
      e += std::pow(g_.weight(i), alpha_) / std::pow(d, alpha_ - 1.0);
    }
    return e;
  }
  void add_gradient(const la::Vector& x, la::Vector& grad) const override {
    for (std::size_t i = 0; i < n(); ++i)
      grad[n() + i] += -(alpha_ - 1.0) * std::pow(g_.weight(i), alpha_) /
                       std::pow(x[n() + i], alpha_);
  }
  void add_hessian(const la::Vector& x, la::Vector& diag) const override {
    for (std::size_t i = 0; i < n(); ++i)
      diag[n() + i] += alpha_ * (alpha_ - 1.0) *
                       std::pow(g_.weight(i), alpha_) /
                       std::pow(x[n() + i], alpha_ + 1.0);
  }

 private:
  std::size_t n() const { return g_.num_nodes(); }
  const reclaim::graph::Digraph& g_;
  double alpha_;
};

/// Runs the barrier on the Continuous-model program of `app` list-scheduled
/// on 3 processors with D = 1.5x its minimum deadline at s_max = 2: the
/// constraints and the uniform-speed start of solve_numeric.
ro::BarrierResult solve_dag_program(const reclaim::graph::Digraph& app,
                                    const ro::BarrierOptions& options) {
  namespace rg = reclaim::graph;
  const rg::Digraph g = reclaim::sched::build_execution_graph(
      app, reclaim::sched::list_schedule(app, 3).mapping);
  const std::size_t n = g.num_nodes();
  const double s_max = 2.0;
  const double deadline = 1.5 * reclaim::core::min_deadline(g, s_max);
  std::vector<ro::SparseInequality> ineqs;
  for (const rg::Edge& e : g.edges())
    ineqs.push_back({{{e.from, 1.0}, {n + e.to, 1.0}, {e.to, -1.0}}, 0.0});
  for (std::size_t v = 0; v < n; ++v) {
    ineqs.push_back({{{n + v, 1.0}, {v, -1.0}}, 0.0});
    ineqs.push_back({{{v, 1.0}}, deadline});
    ineqs.push_back({{{n + v, -1.0}}, -g.weight(v) / s_max});
  }
  const double critical = reclaim::core::critical_weight(g);
  const double s_start = std::sqrt(critical / deadline * s_max);
  const double pad =
      (deadline - critical / s_start) / (8.0 * static_cast<double>(n + 1));
  la::Vector x0(2 * n, 0.0);
  std::vector<double> earliest(n, 0.0);
  std::size_t position = 0;
  const auto order = rg::topological_order(g);
  for (rg::NodeId v : *order) {
    double start = 0.0;
    for (rg::NodeId p : g.predecessors(v)) start = std::max(start, earliest[p]);
    earliest[v] = start + g.weight(v) / s_start;
    x0[v] = earliest[v] + pad * static_cast<double>(++position);
    x0[n + v] = g.weight(v) / s_start;
  }
  const DynamicEnergy f(g, 3.0);
  return ro::minimize_with_barrier(f, ineqs, std::move(x0), options);
}

}  // namespace

TEST(Barrier, GeneralDagProgramsConvergeWithinTheStepBudget) {
  // The five general-DAG families a cold solve service sees, ~16 to ~96
  // tasks. Every stage must end on the Newton decrement, not on the
  // per-stage cap, and the whole solve stay within 150 steps.
  namespace rg = reclaim::graph;
  reclaim::util::Rng rng(2024);
  std::vector<rg::Digraph> apps;
  for (std::size_t k : {4u, 8u}) {
    apps.push_back(rg::make_layered(k, 4, 0.3, rng));
    apps.push_back(rg::make_stencil(4, k, rng));
    apps.push_back(rg::make_tiled_cholesky(k / 2 + 2));
    apps.push_back(rg::make_fft(k / 4 + 1));
    apps.push_back(rg::make_erdos_renyi_dag(4 * k, 1.0 / k, rng));
  }
  apps.push_back(rg::make_layered(12, 8, 0.3, rng));
  apps.push_back(rg::make_stencil(8, 12, rng));
  apps.push_back(rg::make_tiled_cholesky(7));
  apps.push_back(rg::make_fft(4));
  apps.push_back(rg::make_erdos_renyi_dag(96, 4.0 / 96.0, rng));
  const ro::BarrierOptions options;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const ro::BarrierResult r = solve_dag_program(apps[a], options);
    SCOPED_TRACE("dag " + std::to_string(a) + ", " +
                 std::to_string(apps[a].num_nodes()) + " tasks");
    EXPECT_LT(r.max_stage_steps, options.max_newton_per_stage);
    EXPECT_LE(r.newton_steps, 150u);
    EXPECT_LE(r.gap, options.rel_gap * std::max(1.0, std::abs(r.objective)));
  }
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
