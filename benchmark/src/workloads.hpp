// The four benchmark workloads. Each generates its inputs from the seed,
// sets up, measures for opt.seconds, verifies every answer, and fills
// `report` with the end-to-end metrics (opt.trace == false) or the
// per-layer metrics of a traced run (opt.trace == true).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace rb {

void run_serve_warm(const Options& opt, Report& report);
void run_serve_cold_dag(const Options& opt, Report& report);
void run_batch_sweep(const Options& opt, Report& report);
void run_batch_models(const Options& opt, Report& report);

/// The metrics every untraced run reports, in BENCHMARK.json order.
struct EndToEnd {
  std::vector<double> setup_s;
  double inst_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double success_rate = 0.0;
  double energy_reclaimed = 0.0;

  void report_to(Report& report) const;
};

/// Multiplies every weight by a factor drawn from [lo, hi) (zero-weight
/// junction tasks stay zero).
inline void reweight(reclaim::graph::Digraph& g, reclaim::util::Rng& rng,
                     double lo, double hi) {
  for (reclaim::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    g.set_weight(v, g.weight(v) * rng.uniform(lo, hi));
  }
}

/// A generator stream for the structure of the `index`-th graph of a
/// family: the same for every seed, so the seed draws weights, deadlines
/// and order but not how many hard shapes a run gets (solver cost varies
/// far more with structure than with weights).
[[nodiscard]] inline reclaim::util::Rng shape_rng(std::uint64_t family,
                                                  std::uint64_t index) {
  return reclaim::util::Rng(0x9e3779b97f4a7c15ULL * (family + 1) + index);
}

/// Prints the input properties later claims cite.
void note_inputs(const char* what, const std::vector<double>& tasks,
                 double repeat_share, double kernel_run_share,
                 double distinct, double memo_capacity);

/// Prints how many answers each solver route produced.
void note_routes(const std::map<std::string, std::size_t>& routes);

}  // namespace rb
