// Unified front door: solve MinEnergy under any EnergyModel variant. This
// is the library's one route table — the engine, the serve daemon, the
// CLI and the benches all reach their solvers through it.
//
// Routes:
//   Continuous  -> solve_continuous (closed forms / tree / SP / numeric);
//                  with a sleep spec on the platform:
//                    kDp                 -> solve_sleep_dp (exact
//                                           single-processor oracle)
//                    mapping in context  -> solve_race_to_idle, or
//                                           solve_joint_sleep under kJoint
//   Vdd-Hopping -> solve_vdd_lp (exact, Theorem 3)
//   Discrete    -> exact branch-and-bound up to exact_discrete_up_to tasks
//                  (Theorem 4 willing); beyond it the pseudo-polynomial
//                  chain DP on chains and single tasks, CONT-ROUND
//                  (Theorem 5) on every other shape
//   Incremental -> same policy on the incremental mode set
//
// A SolveContext carries what a caller already knows about the instance
// (the engine's cached shape analysis and warm seed, the mapping the
// execution graph was built from) and receives the route that ran. The
// hints never change the answer: a solve with a context is bit-identical
// to one without, except that the mapping unlocks the sleep stage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/problem.hpp"
#include "graph/classify.hpp"
#include "graph/sp_tree.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"

namespace reclaim::core {

struct SolveOptions {
  /// Use the exact exponential solver for Discrete/Incremental when the
  /// graph has at most this many tasks; the chain DP or CONT-ROUND beyond.
  /// 0 forces CONT-ROUND regardless of size and shape (Theorem 5 checks
  /// rely on it).
  std::size_t exact_discrete_up_to = 12;
  /// Numeric/relaxation accuracy.
  double rel_gap = 1e-9;
  /// Speed floor for the Continuous model (Theorem 5's restricted
  /// relaxation); 0 means unrestricted.
  double continuous_s_min = 0.0;
  /// Static-power handling of the Continuous model: the s_crit reduction
  /// (default) or the exact duration-charged solver (DESIGN.md, "Exact
  /// leaky solver"). Mode-based models are unaffected — branch-and-bound
  /// and the Vdd LP already charge the true leaky cost of every mode, and
  /// CONT-ROUND's rounding analysis is a reduction-semantics bound.
  LeakageMode leakage = LeakageMode::kReduction;
  /// Power-down handling of sleep-enabled continuous instances: the
  /// post-hoc race (default), the joint speed + power-down refinement, or
  /// the exact single-processor DP oracle (throws off its eligibility
  /// domain). Race and joint need the mapping (SolveContext::mapping);
  /// without one, both solve busy energy only. Mode-based models ignore
  /// it; so do instances without a sleep spec.
  SleepMode sleep_mode = SleepMode::kRace;
};

/// The route core::solve took, reported through SolveContext::route so
/// callers that count or cache per route need not parse Solution::method.
enum class SolveRoute : std::uint8_t {
  kNone,           ///< nothing ran yet
  kContinuous,     ///< solve_continuous, closed-form or structural answer
  kNumeric,        ///< solve_continuous, numeric barrier answer
  kSleepDp,        ///< solve_sleep_dp (SleepMode::kDp)
  kCrawl,          ///< race-to-idle; the crawl stayed optimal
  kRaced,          ///< race-to-idle; racing strictly won
  kJoint,          ///< joint refiner; the race anchor stayed optimal
  kJointImproved,  ///< joint refiner strictly beat the race anchor
  kVddLp,          ///< solve_vdd_lp
  kExactBb,        ///< branch-and-bound
  kChainDp,        ///< pseudo-polynomial chain DP
  kContRound,      ///< CONT-ROUND
};

/// What the caller already knows about the instance, plus the route out.
/// Every input is optional; a missing hint is recomputed inside.
struct SolveContext {
  /// graph::classify of the execution graph.
  std::optional<graph::GraphShape> shape_hint;
  /// SP decomposition to go with a kSeriesParallel hint.
  std::shared_ptr<const graph::SpTree> sp_hint;
  /// Warm-start speeds for the plain continuous route's numeric solver
  /// (ContinuousOptions::warm_start); the sleep stage does not take it.
  std::shared_ptr<const std::vector<double>> warm_seed;
  /// The mapping the execution graph was built from. Only read where
  /// mapping_matters(); the pointee must outlive the call.
  const sched::Mapping* mapping = nullptr;
  /// Out: the route that produced the returned solution.
  SolveRoute route = SolveRoute::kNone;
};

/// True when a mapping changes the answer: a sleep-enabled Continuous
/// instance under kRace or kJoint, where idle gaps are priced under the
/// mapping's execution order. Memo keys must then include the mapping.
[[nodiscard]] bool mapping_matters(const Instance& instance,
                                   const model::EnergyModel& energy_model,
                                   const SolveOptions& options);

/// Solves the instance under `energy_model`. The returned Solution's
/// `method` field records the algorithm that actually ran; `context`
/// (optional) supplies hints and receives the route.
[[nodiscard]] Solution solve(const Instance& instance,
                             const model::EnergyModel& energy_model,
                             const SolveOptions& options = {},
                             SolveContext* context = nullptr);

}  // namespace reclaim::core
