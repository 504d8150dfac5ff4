// batch-sweep and batch-models: paper-style parameter sweeps through
// engine::ReclaimEngine::solve_batch at two threads with default
// EngineOptions.
//
// Every timed pass solves the whole sweep on a fresh engine (constructed
// outside the timed region), in fixed-size slices, so each pass does the
// same work: the memo and shape cache fill, hit and evict the same way
// every pass. The first pass's answers are verified in full; every later
// pass must reproduce them bit for bit.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/continuous/batch_kernels.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "layers.hpp"
#include "model/power_model.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace rb {

namespace {

using namespace reclaim;

constexpr double kSmax = 2.0;
constexpr std::size_t kEngineThreads = 2;

/// How a topology is mapped: one task per processor (the application
/// graph's shape survives into the execution graph) or list-scheduled.
struct Topology {
  graph::Digraph app;
  std::size_t list_processors = 0;  ///< 0 = one task per processor
};

/// One sweep point: a topology under one (slack, alpha, p_static).
struct Point {
  std::uint32_t topology = 0;
  double slack = 1.0;
  double alpha = 3.0;
  double p_static = 0.0;
  bool repeat = false;  ///< a copy of an earlier point
};

/// One solve_batch stream: a model and the seeded inputs solved under it.
struct GroupInputs {
  std::string name;
  model::EnergyModel model;
  bool sleep = false;  ///< mapped, sleep-enabled instances (race-to-idle)
  std::vector<Topology> topologies;
  std::vector<Point> points;
};

/// The built instances of one group. Sleep groups hold mapped instances.
struct Group {
  const GroupInputs* inputs = nullptr;
  std::vector<core::Instance> plain;
  std::vector<engine::MappedInstance> mapped;

  [[nodiscard]] std::size_t size() const {
    return inputs->sleep ? mapped.size() : plain.size();
  }
  [[nodiscard]] const core::Instance& instance(std::size_t i) const {
    return inputs->sleep ? mapped[i].instance : plain[i];
  }
  [[nodiscard]] std::vector<core::Solution> solve(engine::ReclaimEngine& eng,
                                                  std::size_t lo,
                                                  std::size_t hi) const {
    if (inputs->sleep) {
      return eng.solve_batch(
          std::span<const engine::MappedInstance>(mapped).subspan(lo, hi - lo),
          inputs->model);
    }
    return eng.solve_batch(
        std::span<const core::Instance>(plain).subspan(lo, hi - lo),
        inputs->model);
  }
};

/// Sleep spec of a sleep-enabled point: idle costs P_stat + 0.5, sleep is
/// free, a wake-up costs 2 (the regime where racing can beat the crawl).
model::SleepSpec sleep_spec(double p_static) {
  return model::make_sleep_spec(p_static + 0.5, 0.0, 2.0);
}

/// Set-up proper: builds each sweep point from its application graph the
/// way a batch client does -- map it (list-schedule, or one task per
/// processor), build the execution graph, make the instance.
Group build_group(const GroupInputs& in) {
  Group group;
  group.inputs = &in;
  if (in.sleep) {
    group.mapped.reserve(in.points.size());
  } else {
    group.plain.reserve(in.points.size());
  }
  for (const Point& p : in.points) {
    const Topology& t = in.topologies[p.topology];
    sched::Mapping mapping(1);
    if (t.list_processors > 0) {
      mapping = sched::list_schedule(t.app, t.list_processors).mapping;
    } else {
      std::vector<std::vector<graph::NodeId>> lists(t.app.num_nodes());
      for (graph::NodeId v = 0; v < t.app.num_nodes(); ++v) lists[v] = {v};
      mapping = sched::Mapping(std::move(lists));
    }
    graph::Digraph exec = sched::build_execution_graph(t.app, mapping);
    const double deadline = p.slack * core::min_deadline(exec, kSmax);
    core::Instance instance = core::make_instance(
        std::move(exec), deadline,
        model::make_power_model(p.alpha, p.p_static,
                                in.sleep ? sleep_spec(p.p_static)
                                         : model::SleepSpec{}));
    if (in.sleep) {
      group.mapped.push_back({std::move(instance), std::move(mapping)});
    } else {
      group.plain.push_back(std::move(instance));
    }
  }
  return group;
}

/// Uniform integer in [lo, hi].
std::size_t pick(util::Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// Appends the (alpha x p_static x slack) grid of one topology. With
/// `deadline_inner` the deadline is the innermost axis, so each (alpha,
/// p_static) forms a run the batched kernels take; otherwise alpha is
/// innermost, consecutive instances differ in power model, and each one
/// is solved alone through the memo.
void add_grid(GroupInputs& in, std::uint32_t topology,
              const std::vector<double>& slacks,
              const std::vector<double>& alphas,
              const std::vector<double>& p_statics, bool deadline_inner) {
  for (const double p : p_statics) {
    if (deadline_inner) {
      for (const double alpha : alphas) {
        for (const double slack : slacks) {
          in.points.push_back({topology, slack, alpha, p, false});
        }
      }
    } else {
      for (const double slack : slacks) {
        for (const double alpha : alphas) {
          in.points.push_back({topology, slack, alpha, p, false});
        }
      }
    }
  }
}

/// Copies `count` random points of the block starting at `block_begin`
/// to the end of the sweep (the repeat share).
void add_repeats(GroupInputs& in, std::size_t block_begin, std::size_t count,
                 util::Rng& rng) {
  const std::size_t block_end = in.points.size();
  for (std::size_t r = 0; r < count; ++r) {
    Point p = in.points[pick(rng, block_begin, block_end - 1)];
    p.repeat = true;
    in.points.push_back(p);
  }
}

graph::Digraph sweep_topology(std::size_t family, util::Rng& rng) {
  switch (family % 6) {
    case 0:
      return graph::make_chain(pick(rng, 6, 10), rng);
    case 1:
      return graph::make_fork(pick(rng, 4, 8), rng);
    case 2:
      return graph::make_random_out_tree(pick(rng, 6, 10), rng);
    case 3:
      return graph::make_random_in_tree(pick(rng, 6, 10), rng);
    case 4:
      return graph::make_random_series_parallel(pick(rng, 6, 10), rng);
    default:
      return graph::make_fork_join_chain(2, pick(rng, 2, 3), rng);
  }
}

/// batch-sweep: chain, fork, out-/in-tree, series-parallel and fork-join
/// topologies, each under a slack x alpha (x p_static for chains) grid.
/// One topology in four sweeps the deadline innermost (kernel runs), the
/// rest sweep alpha innermost (scalar solves through the memo); the
/// scalar part alone exceeds the default memo capacity, so every pass
/// inserts, hits (the repeats) and evicts.
///
/// Static power is swept on chains only: on forks, trees and SP graphs
/// any p_static > 0 lets the s_crit floor bind for light tasks, which
/// falls back to the numeric barrier at ~1000x the closed-form cost, so
/// a fraction of a percent of such instances would own the sweep.
std::vector<GroupInputs> sweep_inputs(bool smoke, util::Rng& rng) {
  GroupInputs in;
  in.name = "sweep";
  in.model = model::ContinuousModel{kSmax};
  const std::vector<double> slacks = {1.6, 1.75, 1.9, 2.05, 2.2, 2.4, 2.7, 3.0};
  const std::vector<double> alphas = {2.0, 2.5, 3.0};
  const std::vector<double> chain_p_statics = {0.0, 0.05, 0.2};
  const std::vector<double> no_static = {0.0};
  const std::size_t topologies = smoke ? 96 : 3360;
  for (std::size_t t = 0; t < topologies; ++t) {
    in.topologies.push_back({sweep_topology(t, rng), 0});
    const bool kernel_block = t % 4 == 0;
    const std::size_t begin = in.points.size();
    add_grid(in, static_cast<std::uint32_t>(t), slacks, alphas,
             t % 6 == 0 ? chain_p_statics : no_static, kernel_block);
    if (!kernel_block) add_repeats(in, begin, 2, rng);
  }
  std::vector<GroupInputs> groups;
  groups.push_back(std::move(in));
  return groups;
}

/// batch-models: the sweep shape under Discrete, Incremental and
/// Vdd-Hopping, plus sleep-enabled list-scheduled Continuous instances
/// (the engine's race-to-idle route). Mode-model task counts straddle
/// exact_discrete_up_to (12): 7-task chains and forks take
/// branch-and-bound (whose cost grows ~4-7x per task), 13-task trees and
/// SP graphs take CONT-ROUND, and 20-task chains take the engine's chain
/// DP (where core::solve would take CONT-ROUND).
std::vector<GroupInputs> models_inputs(bool smoke, util::Rng& rng) {
  const model::ModeSet modes({0.5, 1.0, 1.5, 2.0});
  const std::vector<double> slacks = {1.3, 1.8, 2.5};
  const std::vector<double> alphas = {2.5, 3.0};
  const std::vector<double> p_statics = {0.0, 0.1};
  const std::size_t scale = smoke ? 1 : 5;
  // Fixed sizes per family, and tree and SP structures from shape_rng:
  // the seed draws weights, so the cost of a pass does not swing with how
  // many hard shapes a seed happens to draw.
  const auto mode_topology = [&rng](std::size_t k) -> graph::Digraph {
    util::Rng shape = shape_rng(k % 5, k / 5);
    graph::Digraph g;
    switch (k % 5) {
      case 0:
        return graph::make_chain(7, rng);
      case 1:
        return graph::make_chain(20, rng);
      case 2:
        return graph::make_fork(6, rng);
      case 3:
        g = graph::make_random_out_tree(13, shape);
        break;
      default:
        g = graph::make_random_series_parallel(13, shape);
        break;
    }
    reweight(g, rng, 0.5, 1.5);
    return g;
  };
  const auto sleep_topology = [&rng](std::size_t k) -> graph::Digraph {
    switch (k % 3) {
      case 0:
        return graph::make_fork(8, rng);
      case 1:
        return graph::make_chain(10, rng);
      default:
        return graph::make_fork_join_chain(2, 3, rng);
    }
  };
  const auto fill = [&](GroupInputs& in, std::size_t topologies,
                        const auto& topology, std::size_t processors,
                        const std::vector<double>& p_grid) {
    for (std::size_t t = 0; t < topologies; ++t) {
      in.topologies.push_back({topology(t), processors});
      add_grid(in, static_cast<std::uint32_t>(t), slacks, alphas, p_grid,
               true);
    }
  };

  std::vector<GroupInputs> groups(4);
  groups[0].name = "discrete";
  groups[0].model = model::DiscreteModel{modes};
  fill(groups[0], 10 * scale, mode_topology, 0, p_statics);
  groups[1].name = "incremental";
  groups[1].model = model::IncrementalModel(0.5, 2.0, 0.25);
  fill(groups[1], 10 * scale, mode_topology, 0, p_statics);
  groups[2].name = "vdd";
  groups[2].model = model::VddHoppingModel{modes};
  fill(groups[2], 10 * scale, mode_topology, 0, p_statics);
  groups[3].name = "sleep";
  groups[3].model = model::ContinuousModel{kSmax};
  groups[3].sleep = true;
  fill(groups[3], 3 * scale, sleep_topology, 2, {1.0, 4.0});
  return groups;
}

/// Instances per solve_batch call: large for the cheap closed-form sweep,
/// small for the mode models so every pass makes enough calls for stable
/// call-latency quantiles.
std::size_t slice_of(const std::string& workload) {
  return workload == "batch-sweep" ? 2048 : 48;
}

struct Measured {
  std::vector<double> setup_s;  ///< every set-up repetition
  std::vector<Group> groups;
  /// First-pass answers per group, verified.
  std::vector<std::vector<core::Solution>> answers;
  std::vector<double> call_s;  ///< per solve_batch call
  std::vector<double> pass_s;  ///< summed call time per pass
  double timed_s = 0.0;
  std::size_t passes = 0;
  std::size_t attempted = 0;
  std::size_t ok = 0;
  engine::EngineStats stats;  ///< summed over the timed passes
  double energy = 0.0;
  double reference = 0.0;
};

void accumulate(engine::EngineStats& sum, const engine::EngineStats& s) {
  sum.instances += s.instances;
  sum.fresh_solves += s.fresh_solves;
  sum.memo_hits += s.memo_hits;
  sum.shape_hits += s.shape_hits;
  sum.shape_entries += s.shape_entries;
  sum.kernel_solves += s.kernel_solves;
  sum.memo_evictions += s.memo_evictions;
}

engine::EngineOptions batch_engine_options() {
  engine::EngineOptions options;
  options.threads = kEngineThreads;
  return options;
}

/// Set-up slots per run: one before the timed passes and this many more
/// spread between them.
constexpr std::size_t kSetupSlots = 8;

/// Set-up, timed once per repetition: builds every instance and an
/// engine. Repeats within one slot until the slot has taken 50 ms, so a
/// millisecond-scale set-up is timed often enough to hold still.
void set_up(const std::vector<GroupInputs>& inputs, Measured& m) {
  double slot_s = 0.0;
  do {
    m.groups.clear();
    const auto t0 = Clock::now();
    std::vector<Group> groups;
    for (const GroupInputs& in : inputs) groups.push_back(build_group(in));
    const engine::ReclaimEngine eng(batch_engine_options());
    m.setup_s.push_back(since(t0));
    slot_s += m.setup_s.back();
    m.groups = std::move(groups);
  } while (slot_s < 0.05);
}

/// Set-up, the timed passes, and verification. Set-up is repeated between
/// passes as well as before them, so setup_s samples the whole run: a
/// slow second on a shared host then moves a few repetitions, not the
/// median.
Measured measure(const std::vector<GroupInputs>& inputs, const Options& opt,
                 Report& report) {
  Measured m;
  set_up(inputs, m);
  double next_setup_s = opt.seconds / kSetupSlots;

  m.answers.resize(m.groups.size());
  const std::size_t slice = slice_of(opt.workload);
  while (m.timed_s < opt.seconds) {
    if (m.timed_s >= next_setup_s) {
      set_up(inputs, m);
      next_setup_s += opt.seconds / kSetupSlots;
    }
    engine::ReclaimEngine eng(batch_engine_options());
    const bool first = m.passes == 0;
    m.pass_s.push_back(0.0);
    for (std::size_t g = 0; g < m.groups.size(); ++g) {
      const Group& group = m.groups[g];
      for (std::size_t lo = 0; lo < group.size(); lo += slice) {
        const std::size_t hi = std::min(group.size(), lo + slice);
        const auto t0 = Clock::now();
        std::vector<core::Solution> out = group.solve(eng, lo, hi);
        const double dt = since(t0);
        m.call_s.push_back(dt);
        m.pass_s.back() += dt;
        m.timed_s += dt;
        if (first) {
          for (auto& s : out) m.answers[g].push_back(std::move(s));
          continue;
        }
        for (std::size_t i = lo; i < hi; ++i) {
          ++m.attempted;
          if (same_answer(out[i - lo], m.answers[g][i])) ++m.ok;
        }
      }
    }
    accumulate(m.stats, eng.stats());
    if (first) {
      // Verify the first pass in full (untimed).
      for (std::size_t g = 0; g < m.groups.size(); ++g) {
        const Group& group = m.groups[g];
        const model::EnergyModel& model = group.inputs->model;
        for (std::size_t i = 0; i < group.size(); ++i) {
          std::string why;
          const bool good =
              verify_answer(group.instance(i), model, m.answers[g][i], &why);
          ++m.attempted;
          if (good) {
            ++m.ok;
            m.energy += m.answers[g][i].energy;
            m.reference += no_dvfs_energy(group.instance(i), model);
          } else if (m.attempted - m.ok <= 5) {
            note("verification failed in " + group.inputs->name + ": " + why);
          }
        }
      }
    }
    ++m.passes;
  }
  report.attempted = m.attempted;
  report.failed = m.attempted - m.ok;
  return m;
}

void note_batch_inputs(const char* what, const std::vector<GroupInputs>& inputs,
                       const Measured& m) {
  std::vector<double> tasks;
  std::size_t total = 0;
  std::size_t repeats = 0;
  std::size_t in_runs = 0;
  std::map<std::string, std::size_t> routes;
  const core::SolveOptions options;
  for (std::size_t g = 0; g < m.groups.size(); ++g) {
    const Group& group = m.groups[g];
    const GroupInputs& in = inputs[g];
    for (std::size_t i = 0; i < group.size(); ++i) {
      tasks.push_back(
          static_cast<double>(group.instance(i).exec_graph.num_nodes()));
      if (in.points[i].repeat) ++repeats;
      ++routes[in.name + ":" + m.answers[g][i].method];
    }
    // Kernel-eligible runs: >= kKernelMinRun consecutive compatible
    // instances that plan as a closed-form kernel (sleep groups never do).
    std::size_t i = 0;
    while (i < group.size() && !in.sleep) {
      std::size_t j = i + 1;
      while (j < group.size() && core::kernel_run_compatible(
                                     group.instance(i), group.instance(j))) {
        ++j;
      }
      if (j - i >= engine::kKernelMinRun &&
          core::plan_kernel(group.instance(i), in.model, options)) {
        in_runs += j - i;
      }
      i = j;
    }
    total += group.size();
  }
  const double n = static_cast<double>(total);
  note_inputs(what, tasks, static_cast<double>(repeats) / n,
              static_cast<double>(in_runs) / n,
              n - static_cast<double>(repeats),
              static_cast<double>(engine::EngineOptions{}.memo_capacity));
  note_routes(routes);
}

/// The traced run: one pass with each solve_batch call in a span, then
/// every instance replayed alone through core::solve (or, for mapped
/// sleep instances, core::solve_race_to_idle) with memo and kernels out
/// of the way -- the simpler baseline engine.scalar_ratio compares with.
void traced(const Options& opt, const std::vector<GroupInputs>& inputs,
            const Measured& m, double untraced_rate, Report& report) {
  Tracer tracer;
  engine::ReclaimEngine eng(batch_engine_options());
  std::size_t solved = 0;
  std::size_t mismatched = 0;
  const std::size_t slice = slice_of(opt.workload);
  const auto p0 = Clock::now();
  for (std::size_t g = 0; g < m.groups.size(); ++g) {
    const Group& group = m.groups[g];
    for (std::size_t lo = 0; lo < group.size(); lo += slice) {
      const std::size_t hi = std::min(group.size(), lo + slice);
      std::vector<core::Solution> out;
      {
        const Tracer::Scope s(tracer, span::kSolveBatch, g, hi - lo);
        out = group.solve(eng, lo, hi);
      }
      for (std::size_t i = lo; i < hi; ++i) {
        if (!same_answer(out[i - lo], m.answers[g][i])) ++mismatched;
      }
      solved += hi - lo;
    }
  }
  const double pass_s = since(p0);
  if (mismatched > 0) report.consistent = false;

  std::size_t identical = 0;
  double batch_us = 0.0;
  for (const double us : tracer.durations(span::kSolveBatch)) batch_us += us;
  const core::SolveOptions options;
  for (std::size_t g = 0; g < m.groups.size(); ++g) {
    const Group& group = m.groups[g];
    const GroupInputs& in = inputs[g];
    for (std::size_t i = 0; i < group.size(); ++i) {
      const core::Instance& instance = group.instance(i);
      {
        const Tracer::Scope s(tracer, span::kKey, i);
        const std::string key =
            in.sleep ? engine::mapped_instance_key(
                           instance, group.mapped[i].mapping, in.model, options)
                     : engine::instance_key(instance, in.model, options);
        util::require(!key.empty(), "empty instance key");
      }
      core::Solution solution;
      std::size_t index = 0;
      {
        const Tracer::Scope s(tracer, span::kCoreSolve, i,
                              instance.exec_graph.num_nodes());
        index = s.index();
        if (in.sleep) {
          solution = core::solve_race_to_idle(
                         instance, std::get<model::ContinuousModel>(in.model),
                         group.mapped[i].mapping)
                         .solution;
        } else {
          solution = core::solve(instance, in.model, options);
        }
      }
      tracer.tag(index, solution.method, solution.iterations);
      if (same_answer(solution, m.answers[g][i])) ++identical;
    }
  }
  double core_us = 0.0;
  for (const double us : tracer.durations(span::kCoreSolve)) core_us += us;

  LayerFacts facts;
  const auto rate = [](std::size_t num, std::size_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  facts.memo_hit_rate = rate(m.stats.memo_hits, m.stats.instances);
  facts.memo_evictions = static_cast<double>(m.stats.memo_evictions) /
                         static_cast<double>(m.passes);
  facts.shape_hit_rate = rate(m.stats.shape_hits,
                              m.stats.shape_hits + m.stats.shape_entries);
  facts.kernel_share = rate(m.stats.kernel_solves, m.stats.fresh_solves);
  facts.scalar_ratio = core_us > 0.0 ? batch_us / core_us : 0.0;
  facts.route_total_us = core_us;
  facts.untraced_inst_per_s = untraced_rate;
  facts.traced_inst_per_s = static_cast<double>(solved) / pass_s;
  facts.replay_identical_share = rate(identical, solved);

  add_layer_metrics(report, tracer, facts);
  note("traced pass: " + std::to_string(solved) + " answers, " +
       std::to_string(solved - mismatched) +
       " bit-identical to the untraced run; " +
       fmt(facts.traced_inst_per_s, 6) + " inst/s traced vs " +
       fmt(untraced_rate, 6) + " untraced; core::solve "
       "replay agrees bit for bit on " + std::to_string(identical) + " of " +
       std::to_string(solved));
  write_spans(opt, tracer);
}

void run_batch(const Options& opt, const std::vector<GroupInputs>& inputs,
               Report& report) {
  const Measured m = measure(inputs, opt, report);
  EndToEnd e2e;
  e2e.setup_s = m.setup_s;
  std::size_t per_pass = 0;
  for (const Group& g : m.groups) per_pass += g.size();
  // The median pass: a contention burst on the host moves one pass, not
  // the reported rate.
  e2e.inst_per_s = static_cast<double>(per_pass) / median(m.pass_s);
  // Batch latency: wall time of one fixed-size solve_batch call.
  e2e.latency_p50_ms = median(m.call_s) * 1e3;
  e2e.latency_tail_ms = quantile(m.call_s, 0.90) * 1e3;
  e2e.success_rate =
      static_cast<double>(m.ok) / static_cast<double>(m.attempted);
  e2e.energy_reclaimed = m.reference > 0.0 ? 1.0 - m.energy / m.reference : 0.0;

  note(opt.workload + ": " + std::to_string(per_pass) +
       " instances per pass, " + std::to_string(m.passes) + " passes, " +
       std::to_string(m.call_s.size()) + " solve_batch calls of up to " +
       std::to_string(slice_of(opt.workload)) + " in " + fmt(m.timed_s, 4) +
       " s; latency_tail_ms is the p90 call");
  note_batch_inputs(opt.workload.c_str(), inputs, m);

  if (opt.trace) {
    traced(opt, inputs, m, e2e.inst_per_s, report);
  } else {
    e2e.report_to(report);
  }
}

}  // namespace

void run_batch_sweep(const Options& opt, Report& report) {
  util::Rng rng(opt.seed);
  run_batch(opt, sweep_inputs(opt.smoke, rng), report);
}

void run_batch_models(const Options& opt, Report& report) {
  util::Rng rng(opt.seed);
  run_batch(opt, models_inputs(opt.smoke, rng), report);
}

}  // namespace rb
