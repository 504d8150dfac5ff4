// Golden-section search over [lo, hi] that returns the best point it
// evaluated. Safe on piecewise-smooth (kinked) and partially infeasible
// (+inf) objectives: a non-unimodal shape can only make the search less
// effective, never return a point worse than one it evaluated.
#pragma once

#include <cstddef>

namespace reclaim::opt {

struct GoldenPoint {
  double x = 0.0;
  double fx = 0.0;
};

/// Evaluates f at 2 + iters points (a, then b, then one per shrink of the
/// bracket) and returns the first point attaining the smallest value.
template <class F>
GoldenPoint golden_min(F&& f, double lo, double hi, std::size_t iters) {
  constexpr double kGolden = 0.6180339887498949;
  double a = hi - kGolden * (hi - lo);
  double b = lo + kGolden * (hi - lo);
  double fa = f(a);
  double fb = f(b);
  GoldenPoint best = fb < fa ? GoldenPoint{b, fb} : GoldenPoint{a, fa};
  for (std::size_t it = 0; it < iters; ++it) {
    if (fa <= fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - kGolden * (hi - lo);
      fa = f(a);
      if (fa < best.fx) best = {a, fa};
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + kGolden * (hi - lo);
      fb = f(b);
      if (fb < best.fx) best = {b, fb};
    }
  }
  return best;
}

}  // namespace reclaim::opt
