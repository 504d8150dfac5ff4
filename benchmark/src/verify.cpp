#include "verify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/baselines.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace rb {

using namespace reclaim;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same_bits(x, y); });
}

}  // namespace

bool verify_answer(const core::Instance& instance,
                   const model::EnergyModel& model,
                   const core::Solution& solution, std::string* why) {
  const auto fail = [why](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (!solution.feasible) {
    return fail("infeasible answer (" + solution.method + ")");
  }
  try {
    if (solution.uses_profiles()) {
      sched::validate_profiles(instance.exec_graph, solution.profiles, model,
                               instance.deadline);
    } else {
      sched::validate_constant_speeds(instance.exec_graph, solution.speeds,
                                      model, instance.deadline);
    }
  } catch (const Error& e) {
    return fail(solution.method + ": " + e.what());
  }
  const double recomputed = core::recompute_energy(instance, solution);
  const double tol =
      core::kFeasibilityRelTol * std::max(1.0, std::abs(recomputed));
  if (!(std::abs(solution.energy - recomputed) <= tol)) {
    return fail(solution.method + ": reported energy " +
                std::to_string(solution.energy) + " but recomputed " +
                std::to_string(recomputed));
  }
  return true;
}

bool same_answer(const core::Solution& a, const core::Solution& b) {
  if (a.feasible != b.feasible || !same_bits(a.energy, b.energy) ||
      a.method != b.method || a.iterations != b.iterations ||
      !same_bits(a.speeds, b.speeds) ||
      a.profiles.size() != b.profiles.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.profiles.size(); ++i) {
    const auto& x = a.profiles[i].segments;
    const auto& y = b.profiles[i].segments;
    if (x.size() != y.size()) return false;
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (!same_bits(x[k].speed, y[k].speed) ||
          !same_bits(x[k].duration, y[k].duration)) {
        return false;
      }
    }
  }
  return true;
}

double no_dvfs_energy(const core::Instance& instance,
                      const model::EnergyModel& model) {
  const core::Solution reference = core::solve_no_dvfs(instance, model);
  util::require(reference.feasible, "NO-DVFS reference is infeasible");
  return reference.energy;
}

}  // namespace rb
