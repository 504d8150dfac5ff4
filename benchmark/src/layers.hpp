// Per-layer metrics of the traced run: one fixed list of names for every
// workload (a layer a workload does not exercise reads 0), derived from
// the spans plus the engine counters and input facts the workload
// measured itself.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace rb {

/// Solver routes (core::Solution::method values) reported individually;
/// any other route is folded into "other".
inline constexpr const char* kRoutes[] = {
    "closed-form-single", "closed-form-chain", "closed-form-fork",
    "closed-form-join",   "tree",              "series-parallel",
    "numeric-barrier",    "discrete-bb",       "cont-round",
    "chain-dp",           "vdd-lp",            "race-to-idle",
    "other"};

/// Span names the workloads open (one per public entry point).
namespace span {
inline constexpr const char* kRequest = "request";
inline constexpr const char* kDecode = "net.decode";
inline constexpr const char* kParse = "io.parse";
inline constexpr const char* kListSchedule = "sched.list_schedule";
inline constexpr const char* kExecGraph = "sched.exec_graph";
inline constexpr const char* kKey = "engine.key";
inline constexpr const char* kSolveOne = "engine.solve_one";
inline constexpr const char* kEncode = "net.encode";
inline constexpr const char* kSolveBatch = "engine.solve_batch";
inline constexpr const char* kCoreSolve = "core.solve";
}  // namespace span

/// What a workload measured besides its spans.
struct LayerFacts {
  /// Engine counters over the untraced timed phase.
  double memo_hit_rate = 0.0;
  double memo_evictions = 0.0;
  double shape_hit_rate = 0.0;
  double kernel_share = 0.0;  ///< kernel solves / fresh solves
  /// Engine wall time / sum of scalar core::solve times (batch only).
  double scalar_ratio = 0.0;
  /// Untraced served p50 minus the sum of the replayed stage medians.
  double transport_us = 0.0;
  /// Denominator of core.<route>.share, in us: all traced time on the
  /// serve workloads, all core::solve time on the batch workloads.
  double route_total_us = 0.0;
  double untraced_inst_per_s = 0.0;
  double traced_inst_per_s = 0.0;
  /// Share of replayed answers bit-identical to the untraced answers.
  double replay_identical_share = 0.0;
};

/// Appends every per-layer metric to `report`.
void add_layer_metrics(Report& report, const Tracer& tracer,
                       const LayerFacts& facts);

}  // namespace rb
