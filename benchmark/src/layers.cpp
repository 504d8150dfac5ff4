#include "layers.hpp"

#include <array>
#include <cstring>
#include <string>

namespace rb {

namespace {

constexpr std::size_t kRouteCount = std::size(kRoutes);
constexpr const char* kBuckets[] = {"n16", "n32", "n64", "n96"};

std::size_t route_index(const std::string& method) {
  for (std::size_t i = 0; i + 1 < kRouteCount; ++i) {
    if (method == kRoutes[i]) return i;
  }
  return kRouteCount - 1;  // "other"
}

std::size_t bucket_index(std::size_t tasks) {
  if (tasks <= 24) return 0;
  if (tasks <= 48) return 1;
  if (tasks <= 72) return 2;
  return 3;
}

struct Acc {
  double us = 0.0;
  double solves = 0.0;
  double work = 0.0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_layer_metrics(Report& report, const Tracer& tracer,
                       const LayerFacts& facts) {
  const auto stage_us = [&](const char* name) {
    return median(tracer.durations(name));
  };
  report.add("net.decode_us", stage_us(span::kDecode), "us");
  report.add("net.encode_us", stage_us(span::kEncode), "us");
  report.add("net.transport_us", facts.transport_us, "us");
  report.add("io.parse_us", stage_us(span::kParse), "us");
  report.add("sched.list_schedule_us", stage_us(span::kListSchedule), "us");
  report.add("sched.exec_graph_us", stage_us(span::kExecGraph), "us");
  report.add("engine.key_us", stage_us(span::kKey), "us");
  report.add("engine.solve_one_us", stage_us(span::kSolveOne), "us");
  report.add("engine.memo_hit_rate", facts.memo_hit_rate, "ratio");
  report.add("engine.memo_evictions", facts.memo_evictions, "count");
  report.add("engine.shape_hit_rate", facts.shape_hit_rate, "ratio");
  report.add("engine.batch_ms", stage_us(span::kSolveBatch) / 1e3, "ms");
  report.add("engine.kernel_share", facts.kernel_share, "ratio");
  report.add("engine.scalar_ratio", facts.scalar_ratio, "ratio");

  // Routed spans: solver calls tagged with the route they took.
  std::array<Acc, kRouteCount> routes{};
  std::array<Acc, std::size(kBuckets)> barrier{};
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.tag.empty()) continue;
    const std::size_t r = route_index(s.tag);
    Acc& acc = routes[r];
    acc.us += s.duration_us();
    acc.solves += 1.0;
    acc.work += static_cast<double>(s.work);
    if (std::strcmp(kRoutes[r], "numeric-barrier") == 0) {
      Acc& b = barrier[bucket_index(s.size)];
      b.us += s.duration_us();
      b.solves += 1.0;
    }
  }
  for (std::size_t r = 0; r < kRouteCount; ++r) {
    const std::string base = std::string("core.") + kRoutes[r];
    const Acc& acc = routes[r];
    report.add(base + ".share", ratio(acc.us, facts.route_total_us), "ratio");
    report.add(base + ".us_per_solve", ratio(acc.us, acc.solves), "us");
    report.add(base + ".iterations", ratio(acc.work, acc.solves), "count");
  }
  for (std::size_t b = 0; b < std::size(kBuckets); ++b) {
    report.add(std::string("core.numeric-barrier.ms.") + kBuckets[b],
               ratio(barrier[b].us, barrier[b].solves) / 1e3, "ms");
  }
  const Acc& newton = routes[route_index("numeric-barrier")];
  report.add("core.numeric-barrier.steps_per_solve",
             ratio(newton.work, newton.solves), "count");
  report.add("core.numeric-barrier.us_per_step", ratio(newton.us, newton.work),
             "us");

  report.add("replay.identical_share", facts.replay_identical_share, "ratio");
  report.add("trace.inst_per_s", facts.traced_inst_per_s, "1/s");
  report.add("trace.overhead",
             ratio(facts.untraced_inst_per_s, facts.traced_inst_per_s),
             "ratio");
}

}  // namespace rb
