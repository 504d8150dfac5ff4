// Tests for the unified solve() front door, the PATH-STRETCH baseline,
// and the energy/deadline tradeoff utilities.
#include <gtest/gtest.h>

#include <limits>

#include "core/baselines.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "core/tradeoff.hpp"
#include "core/vdd/lp_solver.hpp"
#include "graph/generators.hpp"
#include "graph/topo.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;
using reclaim::util::Rng;

TEST(Solve, DispatchesPerModel) {
  Rng rng(81);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  const rm::ModeSet modes({0.6, 1.2, 2.0});
  auto instance = rc::make_instance(g, rc::min_deadline(g, 2.0) * 1.4);

  const auto cont = rc::solve(instance, rm::ContinuousModel{2.0});
  EXPECT_TRUE(cont.feasible);

  const auto vdd = rc::solve(instance, rm::VddHoppingModel{modes});
  EXPECT_TRUE(vdd.feasible);
  EXPECT_EQ(vdd.method, "vdd-lp");
  EXPECT_TRUE(vdd.uses_profiles());

  // 9 tasks <= exact_discrete_up_to: exact solver.
  const auto disc = rc::solve(instance, rm::DiscreteModel{modes});
  EXPECT_TRUE(disc.feasible);
  EXPECT_EQ(disc.method, "discrete-bb");

  const auto inc = rc::solve(instance, rm::IncrementalModel(0.5, 2.0, 0.25));
  EXPECT_TRUE(inc.feasible);
}

TEST(Solve, LargeDiscreteFallsBackToRounding) {
  Rng rng(82);
  const auto g = rg::make_layered(4, 4, 0.5, rng);  // 16 tasks > 12
  const rm::ModeSet modes({0.6, 1.2, 2.0});
  auto instance = rc::make_instance(g, rc::min_deadline(g, 2.0) * 1.4);
  const auto disc = rc::solve(instance, rm::DiscreteModel{modes});
  EXPECT_TRUE(disc.feasible);
  EXPECT_EQ(disc.method, "cont-round");

  rc::SolveOptions force_exact;
  force_exact.exact_discrete_up_to = 16;
  const auto exact = rc::solve(instance, rm::DiscreteModel{modes}, force_exact);
  EXPECT_EQ(exact.method, "discrete-bb");
  EXPECT_LE(exact.energy, disc.energy * (1.0 + 1e-7));
}

TEST(Solve, LargeChainsTakeTheChainDp) {
  // Beyond exact_discrete_up_to a chain goes to the pseudo-polynomial
  // chain DP, whose stated bound is OPT(D) <= E_DP <= OPT(D (1 - 1/K))
  // (core/discrete/chain_dp.hpp). It is never worse than CONT-ROUND
  // (exact_discrete_up_to = 0), and on 13-16-task Discrete chains it sits
  // within that bound of the branch-and-bound optimum. (Incremental's
  // seven modes exhaust branch-and-bound's node budget at these sizes, so
  // its answer there is no proven optimum.)
  Rng rng(84);
  const rm::ModeSet modes({0.5, 1.0, 1.5, 2.0});
  const double k = static_cast<double>(rc::ChainDpOptions{}.resolution);
  for (const std::size_t n : {13, 14, 16, 20, 24, 40}) {
    for (const rm::EnergyModel& model :
         {rm::EnergyModel{rm::DiscreteModel{modes}},
          rm::EnergyModel{rm::IncrementalModel(0.5, 2.0, 0.25)}}) {
      const auto g = rg::make_chain(n, rng);
      const double deadline = rc::min_deadline(g, 2.0) * rng.uniform(1.2, 2.5);
      const auto instance = rc::make_instance(g, deadline);
      SCOPED_TRACE(std::to_string(n) + " tasks, " +
                   std::string(rm::model_name(model)));

      const auto dp = rc::solve(instance, model);
      ASSERT_TRUE(dp.feasible);
      EXPECT_EQ(dp.method, "chain-dp");

      rc::SolveOptions round_only;
      round_only.exact_discrete_up_to = 0;
      const auto rounded = rc::solve(instance, model, round_only);
      ASSERT_TRUE(rounded.feasible);
      EXPECT_EQ(rounded.method, "cont-round");
      EXPECT_LE(dp.energy, rounded.energy * (1.0 + 1e-9));

      if (n > 16 || !std::holds_alternative<rm::DiscreteModel>(model)) continue;
      rc::SolveOptions exact;
      exact.exact_discrete_up_to = n;
      const auto optimum = rc::solve(instance, model, exact);
      ASSERT_EQ(optimum.method, "discrete-bb");
      EXPECT_GE(dp.energy, optimum.energy * (1.0 - 1e-9));
      const auto tightened =
          rc::solve(rc::make_instance(g, deadline * (1.0 - 1.0 / k)), model,
                    exact);
      if (tightened.feasible) {
        EXPECT_LE(dp.energy, tightened.energy * (1.0 + 1e-9));
      }
    }
  }
}

TEST(Solve, ForcedBarrierMatchesTheClosedForms) {
  // The sparse barrier, stopped by the precision-aware centering rule,
  // must reach the paper's closed-form optima (chain, fork, tree and SP
  // shapes) within the solver stack's shared feasibility tolerance.
  Rng rng(85);
  for (int trial = 0; trial < 4; ++trial) {
    const struct {
      rg::Digraph graph;
      const char* expected;
    } cases[] = {
        {rg::make_chain(8 + trial, rng), "closed-form-chain"},
        {rg::make_fork(5 + trial, rng), "closed-form-fork"},
        {rg::make_random_out_tree(12 + trial, rng), "tree"},
        {rg::make_random_series_parallel(12 + trial, rng), "series-parallel"},
    };
    for (const auto& c : cases) {
      const double d = rc::min_deadline(c.graph, 2.0) * (1.5 + 0.5 * trial);
      const auto instance = rc::make_instance(c.graph, d);
      const rm::ContinuousModel model{std::numeric_limits<double>::infinity()};
      const auto closed = rc::solve_continuous(instance, model);
      ASSERT_EQ(closed.method, c.expected);
      rc::ContinuousOptions force;
      force.force_numeric = true;
      const auto numeric = rc::solve_continuous(instance, model, force);
      ASSERT_TRUE(closed.feasible && numeric.feasible) << c.expected;
      EXPECT_EQ(numeric.method, "numeric-barrier");
      EXPECT_NEAR(numeric.energy, closed.energy,
                  rc::kFeasibilityRelTol * closed.energy)
          << c.expected << " trial " << trial;
    }
  }
}

TEST(PathStretch, FeasibleAndSandwiched) {
  Rng rng(83);
  for (int trial = 0; trial < 8; ++trial) {
    const auto g = rg::make_layered(4, 3, 0.5, rng);
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.1, 2.5);
    auto instance = rc::make_instance(g, d);
    const rm::EnergyModel cont = rm::ContinuousModel{2.0};

    const auto stretch = rc::solve_path_stretch(instance, cont);
    const auto optimal = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
    const auto uniform = rc::solve_uniform(instance, cont);
    ASSERT_TRUE(stretch.feasible && optimal.feasible && uniform.feasible);

    rs::validate_constant_speeds(g, stretch.speeds, cont, d, 1e-7);
    // E_Continuous <= E_PATH-STRETCH <= E_UNIFORM.
    EXPECT_GE(stretch.energy, optimal.energy * (1.0 - 1e-9)) << trial;
    EXPECT_LE(stretch.energy, uniform.energy * (1.0 + 1e-9)) << trial;
  }
}

TEST(PathStretch, CriticalTasksRunAtUniformSpeed) {
  Rng rng(84);
  const auto g = rg::make_layered(4, 3, 0.5, rng);
  const double d = rc::min_deadline(g, 2.0) * 1.5;
  auto instance = rc::make_instance(g, d);
  const auto stretch =
      rc::solve_path_stretch(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(stretch.feasible);
  const double uniform_speed = rc::critical_weight(g) / d;
  const auto cp = rg::critical_path(g);
  for (rg::NodeId v : cp.nodes) {
    if (g.weight(v) > 0.0) {
      EXPECT_NEAR(stretch.speeds[v], uniform_speed, 1e-9);
    }
  }
}

TEST(PathStretch, ModeRoundingStaysFeasible) {
  Rng rng(85);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  const rm::ModeSet modes({0.5, 1.0, 1.5, 2.0});
  const double d = rc::min_deadline(g, 2.0) * 1.3;
  auto instance = rc::make_instance(g, d);
  const rm::EnergyModel disc = rm::DiscreteModel{modes};
  const auto stretch = rc::solve_path_stretch(instance, disc);
  ASSERT_TRUE(stretch.feasible);
  rs::validate_constant_speeds(g, stretch.speeds, disc, d, 1e-7);
}

TEST(PathStretch, InfeasibleBelowDmin) {
  const auto g = rg::make_chain({4.0, 4.0});
  auto instance = rc::make_instance(g, 1.0);
  EXPECT_FALSE(
      rc::solve_path_stretch(instance, rm::ContinuousModel{2.0}).feasible);
}

TEST(PathStretch, ChainEqualsUniformEqualsOptimal) {
  // On a chain every task lies on the single path: PATH-STRETCH == UNIFORM
  // == the Continuous optimum.
  const auto g = rg::make_chain({1.0, 3.0, 2.0});
  auto instance = rc::make_instance(g, 6.0);
  const auto stretch =
      rc::solve_path_stretch(instance, rm::ContinuousModel{2.0});
  const auto optimal = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(stretch.feasible && optimal.feasible);
  EXPECT_NEAR(stretch.energy, optimal.energy, 1e-9);
}

TEST(Tradeoff, CurveIsMonotoneAndFlagsInfeasiblePoints) {
  Rng rng(86);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  auto instance = rc::make_instance(g, 1.0);  // deadline replaced per point
  const double d_min = rc::min_deadline(g, 2.0);
  const auto curve = rc::energy_deadline_curve(
      instance, rm::ContinuousModel{2.0}, 0.8 * d_min, 3.0 * d_min, 12);
  ASSERT_EQ(curve.size(), 12u);
  double previous = std::numeric_limits<double>::infinity();
  bool seen_feasible = false;
  for (const auto& point : curve) {
    if (point.deadline < d_min * (1.0 - 1e-9)) {
      EXPECT_FALSE(point.feasible);
      continue;
    }
    ASSERT_TRUE(point.feasible);
    seen_feasible = true;
    EXPECT_LE(point.energy, previous * (1.0 + 1e-9));
    previous = point.energy;
  }
  EXPECT_TRUE(seen_feasible);
}

TEST(Tradeoff, DeadlineForEnergyInvertsTheCurve) {
  Rng rng(87);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  auto instance = rc::make_instance(g, d_min);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};

  // Pick a target deadline, read its optimal energy, then invert.
  const double target = 1.7 * d_min;
  rc::Instance at{instance.exec_graph, target, instance.platform,
                  instance.assignment};
  const auto reference = rc::solve(at, cont);
  ASSERT_TRUE(reference.feasible);

  const auto inverted = rc::deadline_for_energy(
      instance, cont, reference.energy * (1.0 + 1e-6), d_min, 5.0 * d_min, 1e-7);
  ASSERT_TRUE(inverted.achievable);
  EXPECT_NEAR(inverted.deadline, target, 1e-3 * target);
  EXPECT_LE(inverted.energy, reference.energy * (1.0 + 1e-5));
}

TEST(Tradeoff, UnachievableBudget) {
  const auto g = rg::make_chain({2.0, 2.0});
  auto instance = rc::make_instance(g, 1.0);
  // Even at the loosest deadline the energy floor is > 0.01.
  const auto result = rc::deadline_for_energy(
      instance, rm::ContinuousModel{2.0}, 0.01, 2.0, 4.0);
  EXPECT_FALSE(result.achievable);
}

TEST(Tradeoff, BudgetAlreadyMetAtLowerBound) {
  const auto g = rg::make_chain({2.0, 2.0});
  auto instance = rc::make_instance(g, 1.0);
  const auto result = rc::deadline_for_energy(
      instance, rm::ContinuousModel{2.0}, 1e9, 2.1, 10.0);
  ASSERT_TRUE(result.achievable);
  EXPECT_DOUBLE_EQ(result.deadline, 2.1);
}

TEST(Tradeoff, InvalidArguments) {
  const auto g = rg::make_chain({1.0});
  auto instance = rc::make_instance(g, 1.0);
  EXPECT_THROW((void)rc::energy_deadline_curve(instance, rm::ContinuousModel{1.0},
                                               2.0, 1.0, 3),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::energy_deadline_curve(instance, rm::ContinuousModel{1.0},
                                               1.0, 2.0, 0),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::deadline_for_energy(instance, rm::ContinuousModel{1.0},
                                             -1.0, 1.0, 2.0),
               reclaim::InvalidArgument);
}

TEST(Tradeoff, VddCurveDominatedByContinuousCurve) {
  Rng rng(88);
  const auto g = rg::make_layered(3, 2, 0.6, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  auto instance = rc::make_instance(g, d_min);
  const rm::ModeSet modes({0.5, 1.0, 2.0});
  const auto cont = rc::energy_deadline_curve(
      instance, rm::ContinuousModel{2.0}, 1.1 * d_min, 3.0 * d_min, 6);
  const auto vdd = rc::energy_deadline_curve(
      instance, rm::VddHoppingModel{modes}, 1.1 * d_min, 3.0 * d_min, 6);
  for (std::size_t i = 0; i < cont.size(); ++i) {
    ASSERT_TRUE(cont[i].feasible && vdd[i].feasible);
    EXPECT_GE(vdd[i].energy, cont[i].energy * (1.0 - 1e-7));
  }
}
