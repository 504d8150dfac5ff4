#include "opt/barrier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "la/sparse_cholesky.hpp"
#include "util/error.hpp"

namespace reclaim::opt {

double SparseInequality::residual(const la::Vector& x) const {
  double r = rhs;
  for (const auto& [var, coeff] : terms) r -= coeff * x[var];
  return r;
}

namespace {

/// phi_t(x) = t * f(x) - sum log(residual_k); +inf outside the domain.
/// Residuals are checked before f is evaluated: line-search candidates may
/// fall outside f's domain (e.g. non-positive durations).
double barrier_value(const ConvexObjective& f,
                     const std::vector<SparseInequality>& ineqs, double t,
                     const la::Vector& x) {
  double log_sum = 0.0;
  for (const auto& ineq : ineqs) {
    const double r = ineq.residual(x);
    if (r <= 0.0) return std::numeric_limits<double>::infinity();
    log_sum += std::log(r);
  }
  return t * f.value(x) - log_sum;
}

}  // namespace

BarrierResult minimize_with_barrier(const ConvexObjective& objective,
                                    const std::vector<SparseInequality>& ineqs,
                                    la::Vector x0, const BarrierOptions& options) {
  const std::size_t dim = x0.size();
  for (const auto& ineq : ineqs) {
    util::require(ineq.residual(x0) > 0.0,
                  "barrier start point is not strictly feasible");
  }

  BarrierResult result;
  result.x = std::move(x0);
  const auto m = static_cast<double>(ineqs.size());

  // Hessian pattern: the diagonal plus every pair of variables sharing an
  // inequality. An inequality adds a_k a_k^T / r_k^2; the assembly visits
  // its ordered term pairs (vi, vj) with vi >= vj, which covers each
  // symmetric entry once (a repeated variable's cross terms twice, as the
  // full outer product does), and `slots` lists their storage in that order.
  std::vector<std::pair<std::size_t, std::size_t>> pattern;
  for (const auto& ineq : ineqs) {
    for (std::size_t a = 0; a < ineq.terms.size(); ++a)
      for (std::size_t b = 0; b < a; ++b)
        pattern.emplace_back(ineq.terms[a].first, ineq.terms[b].first);
  }
  la::SparseCholesky hess(dim, pattern);
  std::vector<std::size_t> slots;
  for (const auto& ineq : ineqs) {
    for (const auto& [vi, ci] : ineq.terms)
      for (const auto& [vj, cj] : ineq.terms)
        if (vi >= vj) slots.push_back(hess.slot(vi, vj));
  }
  std::vector<std::size_t> diag_slots(dim);
  for (std::size_t i = 0; i < dim; ++i) diag_slots[i] = hess.slot(i, i);

  la::Vector grad(dim);
  la::Vector diag(dim);
  la::Vector residuals(ineqs.size());
  la::Vector step(dim);
  la::Vector candidate(dim);
  const double eps = std::numeric_limits<double>::epsilon();

  double t = options.t0;
  for (std::size_t stage = 0; stage < options.max_stages; ++stage) {
    // Newton centering for phi_t.
    std::size_t stage_steps = 0;
    for (std::size_t it = 0; it < options.max_newton_per_stage; ++it) {
      std::fill(grad.begin(), grad.end(), 0.0);
      std::fill(diag.begin(), diag.end(), 0.0);
      hess.clear();
      const std::span<double> h = hess.values();

      objective.add_gradient(result.x, grad);
      for (auto& g : grad) g *= t;
      objective.add_hessian(result.x, diag);
      for (std::size_t i = 0; i < dim; ++i) h[diag_slots[i]] = t * diag[i];

      std::size_t s = 0;
      for (std::size_t k = 0; k < ineqs.size(); ++k) {
        const double r = ineqs[k].residual(result.x);
        util::require_numeric(r > 0.0, "barrier iterate left the domain");
        residuals[k] = r;
        const double inv = 1.0 / r;
        const double inv2 = inv * inv;
        // grad += a_k / r_k ; hess += a_k a_k^T / r_k^2  (a_k = +coeffs).
        for (const auto& [vi, ci] : ineqs[k].terms) {
          grad[vi] += ci * inv;
          for (const auto& [vj, cj] : ineqs[k].terms) {
            if (vi >= vj) h[slots[s++]] += ci * cj * inv2;
          }
        }
      }

      // Newton direction: hess dx = -grad, with a jitter fallback for
      // nearly singular Hessians.
      double max_abs = 0.0;
      for (double v : h) max_abs = std::max(max_abs, std::abs(v));
      hess.factor(1e-12 * std::max(1.0, max_abs));
      for (std::size_t i = 0; i < dim; ++i) step[i] = -grad[i];
      hess.solve(step);

      const double decrement2 = -la::dot(grad, step);
      const double phi0 = barrier_value(objective, ineqs, t, result.x);
      ++result.newton_steps;
      ++stage_steps;
      // Stop once the predicted decrease is below newton_tol or below what
      // a double resolves in phi_t (see barrier.hpp).
      if (decrement2 * 0.5 <=
          std::max(options.newton_tol, eps * std::abs(phi0))) {
        break;
      }

      // Largest step that keeps all residuals positive.
      double step_max = 1.0;
      for (std::size_t k = 0; k < ineqs.size(); ++k) {
        double along = 0.0;
        for (const auto& [vi, ci] : ineqs[k].terms) along += ci * step[vi];
        if (along > 0.0) step_max = std::min(step_max, 0.99 * residuals[k] / along);
      }

      // Backtracking line search on phi_t.
      double sigma = step_max;
      for (std::size_t bt = 0; bt < 80; ++bt) {
        for (std::size_t i = 0; i < dim; ++i)
          candidate[i] = result.x[i] + sigma * step[i];
        const double phi = barrier_value(objective, ineqs, t, candidate);
        if (phi <= phi0 - options.armijo * sigma * decrement2) break;
        sigma *= options.backtrack;
      }
      for (std::size_t i = 0; i < dim; ++i) result.x[i] += sigma * step[i];
    }
    result.max_stage_steps = std::max(result.max_stage_steps, stage_steps);

    result.objective = objective.value(result.x);
    result.gap = m / t;
    if (result.gap <= options.rel_gap * std::max(1.0, std::abs(result.objective)))
      break;
    t *= options.mu;
  }
  return result;
}

}  // namespace reclaim::opt
