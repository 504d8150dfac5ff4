#include "core/solve.hpp"

#include "core/continuous/dispatch.hpp"
#include "core/continuous/joint_sleep.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/continuous/sleep_dp.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/discrete/round_up.hpp"
#include "core/vdd/lp_solver.hpp"

namespace reclaim::core {

namespace {

Solution solve_mode_based(const Instance& instance, const model::ModeSet& modes,
                          const SolveOptions& options, SolveContext& context) {
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  if (n <= options.exact_discrete_up_to) {
    context.route = SolveRoute::kExactBb;
    return solve_discrete_exact(instance, modes).solution;
  }
  // exact_discrete_up_to == 0 means "force CONT-ROUND" (callers
  // validating Theorem 5 rely on it), so it disables the DP route too.
  if (options.exact_discrete_up_to > 0) {
    const bool chain =
        context.shape_hint
            ? *context.shape_hint == graph::GraphShape::kChain ||
                  *context.shape_hint == graph::GraphShape::kSingleTask
            : n == 1 || graph::is_chain(g);
    if (chain) {
      context.route = SolveRoute::kChainDp;
      return solve_chain_dp(instance, modes).solution;
    }
  }
  context.route = SolveRoute::kContRound;
  RoundUpOptions round_options;
  round_options.continuous_rel_gap = options.rel_gap;
  return solve_round_up(instance, modes, round_options).solution;
}

Solution solve_continuous_routed(const Instance& instance,
                                 const model::ContinuousModel& m,
                                 const SolveOptions& options,
                                 SolveContext& context) {
  if (options.sleep_mode == SleepMode::kDp && instance.platform.has_sleep()) {
    // The exact single-processor oracle; throws off its eligibility
    // domain. Mapping-independent (one processor, one tail gap).
    context.route = SolveRoute::kSleepDp;
    return solve_sleep_dp(instance, m).solution;
  }
  ContinuousOptions continuous_options;
  continuous_options.rel_gap = options.rel_gap;
  continuous_options.s_min = options.continuous_s_min;
  continuous_options.leakage = options.leakage;
  continuous_options.shape_hint = context.shape_hint;
  continuous_options.sp_hint = context.sp_hint;

  if (context.mapping != nullptr && mapping_matters(instance, m, options)) {
    RaceToIdleOptions race;
    race.continuous = std::move(continuous_options);
    if (options.sleep_mode == SleepMode::kJoint) {
      JointSleepOptions joint;
      joint.race = std::move(race);
      JointSleepResult result =
          solve_joint_sleep(instance, m, *context.mapping, joint);
      context.route = result.improved ? SolveRoute::kJointImproved : SolveRoute::kJoint;
      return std::move(result.solution);
    }
    RaceToIdleResult result =
        solve_race_to_idle(instance, m, *context.mapping, race);
    context.route = result.raced ? SolveRoute::kRaced : SolveRoute::kCrawl;
    return std::move(result.solution);
  }

  continuous_options.warm_start = context.warm_seed;
  Solution s = solve_continuous(instance, m, continuous_options);
  context.route = s.method == "numeric-barrier" || s.method == "numeric-exact-leaky"
              ? SolveRoute::kNumeric
              : SolveRoute::kContinuous;
  return s;
}

}  // namespace

bool mapping_matters(const Instance& instance,
                     const model::EnergyModel& energy_model,
                     const SolveOptions& options) {
  return std::holds_alternative<model::ContinuousModel>(energy_model) &&
         instance.platform.has_sleep() && options.sleep_mode != SleepMode::kDp;
}

Solution solve(const Instance& instance, const model::EnergyModel& energy_model,
               const SolveOptions& options, SolveContext* context) {
  SolveContext local;
  SolveContext& ctx = context != nullptr ? *context : local;
  return std::visit(
      [&](const auto& m) -> Solution {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, model::ContinuousModel>) {
          return solve_continuous_routed(instance, m, options, ctx);
        } else if constexpr (std::is_same_v<M, model::VddHoppingModel>) {
          ctx.route = SolveRoute::kVddLp;
          return solve_vdd_lp(instance, m).solution;
        } else {
          static_assert(std::is_same_v<M, model::DiscreteModel> ||
                        std::is_same_v<M, model::IncrementalModel>);
          return solve_mode_based(instance, m.modes, options, ctx);
        }
      },
      energy_model);
}

}  // namespace reclaim::core
