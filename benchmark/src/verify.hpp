// Answer checks shared by every workload.
#pragma once

#include <string>

#include "core/problem.hpp"
#include "model/energy_model.hpp"

namespace rb {

/// True when `solution` is a correct answer for `instance` under `model`:
/// feasible, every speed (or Vdd profile) admissible and the induced
/// schedule within the deadline (sched::validate_constant_speeds /
/// sched::validate_profiles), and the reported energy equal to a
/// recomputation within core::kFeasibilityRelTol. Fills `why` on failure.
[[nodiscard]] bool verify_answer(const reclaim::core::Instance& instance,
                                 const reclaim::model::EnergyModel& model,
                                 const reclaim::core::Solution& solution,
                                 std::string* why = nullptr);

/// True when two solutions are bit-identical: feasibility, energy, route,
/// iteration count, and every speed or profile segment.
[[nodiscard]] bool same_answer(const reclaim::core::Solution& a,
                               const reclaim::core::Solution& b);

/// Busy energy of the NO-DVFS baseline (every task at top speed): the
/// reference of energy_reclaimed. Throws when the baseline is infeasible.
[[nodiscard]] double no_dvfs_energy(const reclaim::core::Instance& instance,
                                    const reclaim::model::EnergyModel& model);

}  // namespace rb
