// Cross-entry-point differential suite: the same instance gets the same
// answer, bit for bit, from every way into the solver stack —
//
//   core::solve without a context, and with one (the mapping alone, or
//   the mapping plus the shape hints the engine's cache would supply);
//   ReclaimEngine::solve_one and solve_batch, plain and mapped, with
//   kernels on/off x memo on/off x 1/4 threads (each batch solved twice,
//   so memo-on engines answer the second pass from the memo);
//   and a RESULT served by ReclaimServer over a socketpair.
//
// Plain entry points must match context-free core::solve; mapped ones
// must match core::solve with the mapping in its context. The two agree
// wherever core::mapping_matters is false. Instances come from
// tests/fuzz_harness.hpp and cover all four energy models, 13-40-task
// Discrete/Incremental chains (the chain-DP route), and sleep-enabled
// mapped instances under kRace, kJoint and kDp.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/reclaim_engine.hpp"
#include "fuzz_harness.hpp"
#include "graph/classify.hpp"
#include "graph/generators.hpp"
#include "graph/sp_tree.hpp"
#include "io/graph_io.hpp"
#include "model/platform.hpp"
#include "model/power_model.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "sched/execution_graph.hpp"
#include "sched/mapping.hpp"
#include "serve_harness.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace re = reclaim::engine;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rn = reclaim::net;
namespace rs = reclaim::sched;
namespace rt = reclaim::testing;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSTop = 2.0;

const rm::ModeSet& modes() {
  static const rm::ModeSet m({0.5, 1.0, 1.5, 2.0});
  return m;
}

void expect_identical(const rc::Solution& a, const rc::Solution& b,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.energy, b.energy);  // bit-identical, not approximately equal
  EXPECT_EQ(a.method, b.method);
  ASSERT_EQ(a.speeds.size(), b.speeds.size());
  for (std::size_t i = 0; i < a.speeds.size(); ++i) {
    EXPECT_EQ(a.speeds[i], b.speeds[i]) << "speed " << i;
  }
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (std::size_t i = 0; i < a.profiles.size(); ++i) {
    const auto& pa = a.profiles[i].segments;
    const auto& pb = b.profiles[i].segments;
    ASSERT_EQ(pa.size(), pb.size()) << "profile " << i;
    for (std::size_t s = 0; s < pa.size(); ++s) {
      EXPECT_EQ(pa[s].speed, pb[s].speed) << "profile " << i;
      EXPECT_EQ(pa[s].duration, pb[s].duration) << "profile " << i;
    }
  }
}

/// The SOLVE request that makes the daemon rebuild `trial` exactly: the
/// application graph and mapping as text, the trial's platform verbatim.
rn::SolveRequest request_for(const rt::FuzzTrial& trial,
                             const rm::EnergyModel& model) {
  rn::SolveRequest request;
  request.deadline = trial.instance.deadline;
  request.model = model;
  request.platform = trial.instance.platform.specs();
  std::ostringstream graph;
  reclaim::io::write_task_graph(graph, trial.app);
  request.graph_text = graph.str();
  std::ostringstream mapping;
  reclaim::io::write_mapping(mapping, trial.mapping, trial.app);
  request.mapping_text = mapping.str();
  return request;
}

using RouteTally = std::map<rc::SolveRoute, std::size_t>;

/// Runs every entry point over `trials` under (model, options), checks
/// each answer against its core::solve reference, and tallies the routes
/// the mapped references took (so a test can assert what it covered).
RouteTally check_entry_points(const std::vector<rt::FuzzTrial>& trials,
                              const rm::EnergyModel& model,
                              const rc::SolveOptions& options) {
  RouteTally routes;
  const std::string label = std::string(rm::model_name(model));
  std::vector<rc::Instance> plain;
  std::vector<re::MappedInstance> mapped;
  std::vector<rc::Solution> plain_ref;
  std::vector<rc::Solution> mapped_ref;
  for (const rt::FuzzTrial& t : trials) {
    const std::string where = label + " trial " + std::to_string(t.index);
    plain.push_back(t.instance);
    mapped.push_back({t.instance, t.mapping});
    plain_ref.push_back(rc::solve(t.instance, model, options));

    rc::SolveContext context;
    context.mapping = &t.mapping;
    mapped_ref.push_back(rc::solve(t.instance, model, options, &context));
    EXPECT_NE(context.route, rc::SolveRoute::kNone) << where;
    ++routes[context.route];

    // The hints the engine's shape cache supplies change nothing.
    rc::SolveContext hinted;
    hinted.mapping = &t.mapping;
    hinted.shape_hint = rg::classify(t.instance.exec_graph);
    if (*hinted.shape_hint == rg::GraphShape::kSeriesParallel) {
      if (auto tree = rg::sp_decompose(t.instance.exec_graph)) {
        hinted.sp_hint = std::make_shared<const rg::SpTree>(std::move(*tree));
      }
    }
    expect_identical(rc::solve(t.instance, model, options, &hinted),
                     mapped_ref.back(), where + ": hinted core::solve");
    EXPECT_EQ(hinted.route, context.route) << where;

    if (!rc::mapping_matters(t.instance, model, options)) {
      expect_identical(mapped_ref.back(), plain_ref.back(),
                       where + ": mapping-free core::solve");
    }
  }

  for (const std::size_t threads : {1, 4}) {
    for (const bool use_kernels : {true, false}) {
      for (const bool memoize : {true, false}) {
        re::EngineOptions engine_options;
        engine_options.threads = threads;
        engine_options.use_kernels = use_kernels;
        engine_options.memoize = memoize;
        re::ReclaimEngine engine(engine_options);
        const std::string config =
            label + " threads=" + std::to_string(threads) +
            " kernels=" + std::to_string(use_kernels) +
            " memo=" + std::to_string(memoize);
        for (int pass = 0; pass < 2; ++pass) {
          const auto batch = engine.solve_batch(plain, model, options);
          const auto mapped_batch = engine.solve_batch(mapped, model, options);
          EXPECT_EQ(batch.size(), trials.size());
          EXPECT_EQ(mapped_batch.size(), trials.size());
          if (batch.size() != trials.size() ||
              mapped_batch.size() != trials.size()) {
            return routes;
          }
          for (std::size_t i = 0; i < trials.size(); ++i) {
            const std::string where = config + " pass " +
                                      std::to_string(pass) + " trial " +
                                      std::to_string(trials[i].index);
            expect_identical(batch[i], plain_ref[i], where + ": solve_batch");
            expect_identical(mapped_batch[i], mapped_ref[i],
                             where + ": mapped solve_batch");
          }
        }
      }
    }
  }

  re::ReclaimEngine engine(re::EngineOptions{.threads = 1});
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const std::string where = label + " trial " + std::to_string(trials[i].index);
    expect_identical(engine.solve_one(plain[i], model, options), plain_ref[i],
                     where + ": solve_one");
    expect_identical(engine.solve_one(mapped[i], model, options),
                     mapped_ref[i], where + ": mapped solve_one");
  }

  rn::ServerOptions server_options;
  server_options.engine.threads = 2;
  server_options.solve = options;
  rn::ReclaimServer server(server_options);
  rt::TestConnection conn(server);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const std::string where = label + " trial " + std::to_string(trials[i].index);
    const std::uint64_t id =
        conn.client->send_solve(request_for(trials[i], model));
    const auto reply = conn.client->read_message();
    EXPECT_TRUE(reply.has_value()) << where;
    if (!reply) break;
    EXPECT_EQ(reply->id, id) << where;
    const auto* result = std::get_if<rn::SolveResult>(&reply->body);
    EXPECT_NE(result, nullptr) << where << ": served an error";
    if (result != nullptr) {
      expect_identical(result->solution, mapped_ref[i], where + ": served");
    }
  }
  return routes;
}

std::vector<rt::FuzzTrial> collect(const rt::FuzzOptions& fuzz) {
  std::vector<rt::FuzzTrial> trials;
  rt::run_fuzz(fuzz, [&](const rt::FuzzTrial& t) { trials.push_back(t); });
  return trials;
}

/// Homogeneous platform of `procs` copies of one drawn curve, with static
/// power up to `p_static_hi` (one draw in five leakage-free) and the sleep
/// spec `sleep_of(p_static)`.
template <class SleepOf>
rm::Platform homogeneous(std::size_t procs, reclaim::util::Rng& rng,
                         double p_static_hi, const SleepOf& sleep_of) {
  const double alpha = rng.bernoulli(0.5) ? 2.5 : 3.0;
  const double p_static =
      rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.05, p_static_hi);
  const double cap = rng.bernoulli(0.5) ? kInf : kSTop;
  return rm::Platform(std::vector<rm::ProcessorSpec>(
      procs, {rm::make_power_model(alpha, p_static, sleep_of(p_static)), cap}));
}

/// Sleep specs cycling by trial: four fixed specs, plus the regime where
/// idling costs more than leakage and a sleep is free but a wake is not —
/// where racing tends to beat the crawl.
rm::SleepSpec sleep_spec(std::size_t trial, double p_static) {
  switch (trial % 5) {
    case 0:
      return rm::make_sleep_spec(1.0, 0.0, 0.5);
    case 1:
      return rm::make_sleep_spec(2.0, 0.1, 2.0);
    case 2:
      return rm::make_sleep_spec(0.8, 0.8, 0.0);
    case 3:
      return rm::make_sleep_spec(3.0, 0.0, 6.0);
    default:
      return rm::make_sleep_spec(p_static + 0.5, 0.0, 2.0);
  }
}

/// test_sleep's canonical race-wins instance: A alone on P0; B, C chained
/// on P1 with A -> C, a binding s_crit floor and an idle-charged interior
/// gap on P1.
rt::FuzzTrial race_wins_trial(std::size_t index) {
  rg::Digraph app;
  const auto a = app.add_node(2.0, "A");
  const auto b = app.add_node(0.5, "B");
  const auto c = app.add_node(0.5, "C");
  app.add_edge(a, c);
  rs::Mapping mapping(2);
  mapping.assign(0, a);
  mapping.assign(1, b);
  mapping.assign(1, c);
  const auto power =
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(3.0, 0.0, 6.0));
  return {index,
          rc::make_instance(rs::build_execution_graph(app, mapping), 6.0,
                            rm::Platform::uniform(2, power), mapping),
          mapping, std::move(app)};
}

}  // namespace

// Discrete and Incremental beyond exact_discrete_up_to: single-processor
// 13-40-task chains take the chain DP; the out-trees, whose one-processor
// execution graphs are not chains, take CONT-ROUND.
TEST(EntryPoints, ModeModelsOnLongChains) {
  rt::FuzzOptions fuzz;
  fuzz.seed = 20261017;
  fuzz.trials = rt::fuzz_trials(12);
  fuzz.s_top = kSTop;
  fuzz.slack_lo = 1.2;
  fuzz.app = [](std::size_t trial, reclaim::util::Rng& rng) {
    static constexpr std::size_t kSizes[] = {13, 16, 20, 24, 32, 40};
    const std::size_t n = kSizes[(trial / 3) % 6];
    return trial % 3 == 2 ? rg::make_random_out_tree(n, rng)
                          : rg::make_chain(n, rng);
  };
  fuzz.procs = [](std::size_t) { return std::size_t{1}; };
  fuzz.platform = [](std::size_t, std::size_t procs, reclaim::util::Rng& rng) {
    return homogeneous(procs, rng, 0.5,
                       [](double) { return rm::SleepSpec{}; });
  };
  const auto trials = collect(fuzz);
  for (const rm::EnergyModel& model :
       {rm::EnergyModel{rm::DiscreteModel{modes()}},
        rm::EnergyModel{rm::IncrementalModel(0.5, 2.0, 0.25)}}) {
    RouteTally routes = check_entry_points(trials, model, {});
    EXPECT_GT(routes[rc::SolveRoute::kChainDp], 0u);
    if (trials.size() >= 3) {
      EXPECT_GT(routes[rc::SolveRoute::kContRound], 0u);
    }
  }
}

// All four models on small mixed shapes (chain, fork, join, diamond,
// layered, stencil, out-tree) over 1-3 heterogeneous processors.
TEST(EntryPoints, EveryModelOnMixedShapes) {
  rt::FuzzOptions fuzz;
  fuzz.seed = 20261018;
  fuzz.trials = rt::fuzz_trials(14);
  fuzz.s_top = kSTop;
  fuzz.app = [](std::size_t trial, reclaim::util::Rng& rng) {
    return trial % 7 == 6 ? rg::make_random_out_tree(4 + trial % 5, rng)
                          : rt::six_family_app(trial, rng);
  };
  fuzz.procs = [](std::size_t trial) { return 1 + trial % 3; };
  fuzz.platform = [](std::size_t trial, std::size_t procs,
                     reclaim::util::Rng& rng) {
    return rt::mixed_leaky_platform(trial, procs, rng, kSTop);
  };
  const auto trials = collect(fuzz);
  for (const rm::EnergyModel& model :
       {rm::EnergyModel{rm::ContinuousModel{kSTop}},
        rm::EnergyModel{rm::DiscreteModel{modes()}},
        rm::EnergyModel{rm::VddHoppingModel{modes()}},
        rm::EnergyModel{rm::IncrementalModel(0.5, 2.0, 0.25)}}) {
    check_entry_points(trials, model, {});
  }
}

// Sleep-enabled mapped instances under the race and joint sleep stages.
TEST(EntryPoints, SleepStageRaceAndJoint) {
  rt::FuzzOptions fuzz;
  fuzz.seed = 20261019;
  fuzz.trials = rt::fuzz_trials(12);
  fuzz.s_top = kSTop;
  fuzz.app = [](std::size_t trial, reclaim::util::Rng& rng) {
    switch (trial % 3) {
      case 0:
        return rg::make_chain(2 + trial % 5, rng);
      case 1:
        return rg::make_fork(2 + trial % 4, rng);
      default:
        return rg::make_random_out_tree(3 + trial % 5, rng);
    }
  };
  fuzz.procs = [](std::size_t trial) { return 1 + trial % 3; };
  fuzz.platform = [](std::size_t trial, std::size_t procs,
                     reclaim::util::Rng& rng) {
    return homogeneous(procs, rng, 3.0, [trial](double p_static) {
      return sleep_spec(trial, p_static);
    });
  };
  auto trials = collect(fuzz);
  trials.push_back(race_wins_trial(trials.size()));
  rc::SolveOptions options;
  RouteTally race =
      check_entry_points(trials, rm::ContinuousModel{kSTop}, options);
  EXPECT_EQ(race[rc::SolveRoute::kRaced] + race[rc::SolveRoute::kCrawl],
            trials.size());
  EXPECT_GT(race[rc::SolveRoute::kRaced], 0u);
  options.sleep_mode = rc::SleepMode::kJoint;
  RouteTally joint =
      check_entry_points(trials, rm::ContinuousModel{kSTop}, options);
  EXPECT_EQ(joint[rc::SolveRoute::kJoint] +
                joint[rc::SolveRoute::kJointImproved],
            trials.size());
  EXPECT_GT(joint[rc::SolveRoute::kJointImproved], 0u);
}

// The exact sleep DP oracle on its eligibility domain (one processor,
// homogeneous model): mapping-independent, so plain and mapped agree.
TEST(EntryPoints, SleepStageExactDp) {
  rt::FuzzOptions fuzz;
  fuzz.seed = 20261020;
  fuzz.trials = rt::fuzz_trials(12);
  fuzz.s_top = kSTop;
  fuzz.app = [](std::size_t trial, reclaim::util::Rng& rng) {
    return rg::make_chain(2 + trial % 6, rng);
  };
  fuzz.procs = [](std::size_t) { return std::size_t{1}; };
  fuzz.platform = [](std::size_t trial, std::size_t procs,
                     reclaim::util::Rng& rng) {
    return homogeneous(procs, rng, 3.0, [trial](double p_static) {
      return sleep_spec(trial, p_static);
    });
  };
  rc::SolveOptions options;
  options.sleep_mode = rc::SleepMode::kDp;
  const auto trials = collect(fuzz);
  RouteTally routes =
      check_entry_points(trials, rm::ContinuousModel{kSTop}, options);
  EXPECT_EQ(routes[rc::SolveRoute::kSleepDp], trials.size());
}
