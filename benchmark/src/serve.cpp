// serve-warm and serve-cold-dag: SOLVE requests through an in-process
// net::ReclaimServer over socketpairs, one request in flight per
// connection, load generated from this process.
//
// Thread budget: serve-warm runs one connection against an inline engine
// (client + server reader: at most two runnable threads, and only one at a
// time); serve-cold-dag runs two connections against a two-thread engine,
// where solves last milliseconds and hand-offs are negligible.
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "layers.hpp"
#include "model/power_model.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
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

/// True while set-up should be repeated: at least 5 times, and until the
/// repetitions add up to half a second (at most 50), so a short set-up is
/// timed often enough for its median to hold still.
bool more_setup(const std::vector<double>& times) {
  return times.size() < 5 || (sum(times) < 0.5 && times.size() < 50);
}

struct Request {
  net::SolveRequest body;
  std::size_t tasks = 0;
};

Request make_request(const graph::Digraph& app, std::size_t processors,
                     double slack) {
  // The deadline is relative to the execution graph the server will build
  // from its own list schedule, not to the application graph.
  const graph::Digraph exec = sched::build_execution_graph(
      app, sched::list_schedule(app, processors).mapping);
  Request r;
  r.body.deadline = slack * core::min_deadline(exec, kSmax);
  r.body.model = model::ContinuousModel{kSmax};
  r.body.processors = static_cast<std::uint32_t>(processors);
  std::ostringstream text;
  io::write_task_graph(text, app);
  r.body.graph_text = text.str();
  r.tasks = app.num_nodes();
  return r;
}

/// Rebuilds the instance a SOLVE describes exactly as the server does:
/// parse, list-schedule, execution graph, instance.
engine::MappedInstance rebuild(const net::SolveRequest& body) {
  const graph::Digraph app = io::read_task_graph_from_string(body.graph_text);
  sched::Mapping mapping = sched::list_schedule(app, body.processors).mapping;
  graph::Digraph exec = sched::build_execution_graph(app, mapping);
  core::Instance instance = core::make_instance(
      std::move(exec), body.deadline,
      model::make_power_model(body.alpha, body.p_static, body.sleep));
  return {std::move(instance), std::move(mapping)};
}

/// 4 * per_family distinct memo-friendly requests: chains, out-trees,
/// fork-join pipelines and small stencils on 1-2 processors. The graphs
/// that list scheduling turns into general DAGs are kept small, so the
/// warm pass (part of set-up) stays short.
std::vector<Request> warm_requests(std::size_t per_family, util::Rng& rng) {
  std::vector<Request> out;
  for (std::size_t k = 0; k < per_family; ++k) {
    const std::size_t procs = 1 + k % 2;
    out.push_back(make_request(graph::make_chain(16 + k % 8, rng), procs, 1.4));
    out.push_back(
        make_request(graph::make_random_out_tree(10 + k % 4, rng), procs, 1.4));
    out.push_back(make_request(graph::make_fork_join_chain(2, 2 + k % 3, rng),
                               procs, 1.4));
    out.push_back(
        make_request(graph::make_stencil(3, 3 + k % 2, rng), procs, 1.4));
  }
  return out;
}

/// One cold round: for each of five general-DAG families, six requests
/// of about 16 tasks and three of about 32, plus one of about 64 tasks
/// from one family in turn, shuffled. Within a size level the families'
/// solve times overlap, so the median (in the 16-task level) and the p90
/// (in the 32-task level) fall inside a smooth part of the distribution,
/// not between two clusters; the 64-task requests add the large-bucket
/// solves without owning the run. The traced run also times one ~64- and
/// one ~96-task DAG per family (level_dags).
constexpr std::size_t kColdFamilies = 5;
constexpr std::size_t kColdLevels = 4;
constexpr std::size_t kLevelCopies[2] = {6, 3};
constexpr std::size_t kColdRound = kColdFamilies * (6 + 3) + 1;
constexpr std::size_t kColdProcessors = 3;

/// The `index`-th DAG of one family and size level: its structure from
/// shape_rng, its weights scaled by a seeded factor in [0.8, 1.2) (which
/// also makes the fixed-weight generators -- tiled Cholesky, FFT -- yield
/// distinct instances).
graph::Digraph cold_dag(std::size_t family, std::size_t level,
                        std::size_t index, util::Rng& rng) {
  static constexpr std::size_t kLayered[kColdLevels][2] = {
      {4, 4}, {8, 4}, {8, 8}, {12, 8}};
  static constexpr std::size_t kStencil[kColdLevels][2] = {
      {4, 4}, {4, 8}, {8, 8}, {8, 12}};
  static constexpr std::size_t kTiles[kColdLevels] = {4, 5, 6, 7};
  static constexpr std::size_t kFft[kColdLevels] = {2, 3, 4, 4};
  static constexpr std::size_t kErdos[kColdLevels] = {16, 32, 64, 96};
  util::Rng shape = shape_rng(family * kColdLevels + level, index);
  graph::Digraph g;
  switch (family) {
    case 0:
      g = graph::make_layered(kLayered[level][0], kLayered[level][1], 0.3,
                              shape);
      break;
    case 1:
      g = graph::make_stencil(kStencil[level][0], kStencil[level][1], shape);
      break;
    case 2:
      g = graph::make_tiled_cholesky(kTiles[level]);
      break;
    case 3:
      g = graph::make_fft(kFft[level]);
      break;
    default:
      g = graph::make_erdos_renyi_dag(
          kErdos[level], 4.0 / static_cast<double>(kErdos[level]), shape);
      break;
  }
  reweight(g, rng, 0.8, 1.2);
  return g;
}

std::vector<Request> cold_rounds(std::size_t rounds, util::Rng& rng) {
  std::vector<Request> out;
  out.reserve(rounds * kColdRound);
  std::vector<std::pair<std::size_t, std::size_t>> cells;  // family, level
  std::size_t made[kColdFamilies][kColdLevels] = {};
  for (std::size_t r = 0; r < rounds; ++r) {
    cells.clear();
    for (std::size_t f = 0; f < kColdFamilies; ++f) {
      for (std::size_t l = 0; l < std::size(kLevelCopies); ++l) {
        for (std::size_t c = 0; c < kLevelCopies[l]; ++c) {
          cells.emplace_back(f, l);
        }
      }
    }
    cells.emplace_back(r % kColdFamilies, 2);
    std::shuffle(cells.begin(), cells.end(), rng);
    for (const auto& [family, level] : cells) {
      out.push_back(make_request(
          cold_dag(family, level, made[family][level]++, rng), kColdProcessors,
          1.5));
    }
  }
  return out;
}

/// One request per family at `level` (the warm-up and the traced run's
/// bucket probe).
std::vector<Request> level_dags(std::size_t level, util::Rng& rng) {
  std::vector<Request> out;
  for (std::size_t f = 0; f < kColdFamilies; ++f) {
    out.push_back(
        make_request(cold_dag(f, level, 0, rng), kColdProcessors, 1.5));
  }
  return out;
}

/// One client connection served by its own serve_stream thread.
class Connection {
 public:
  explicit Connection(net::ReclaimServer& server) {
    util::require(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) == 0,
                  "socketpair failed");
    serve_thread_ =
        std::thread([&server, fd = fds_[0]] { server.serve_stream(fd, fd); });
    client_.emplace(net::ServeClient::from_fds(fds_[1], fds_[1]));
  }
  ~Connection() {
    client_->finish_sending();
    serve_thread_.join();
    client_.reset();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// The thread serving this connection.
  [[nodiscard]] pthread_t server_thread() {
    return serve_thread_.native_handle();
  }

  /// Sends one SOLVE and waits for its reply; nullopt for an ERROR reply.
  /// `latency_s` receives send-to-reply time.
  std::optional<core::Solution> call(const net::SolveRequest& body,
                                     double& latency_s) {
    const auto t0 = Clock::now();
    (void)client_->send_solve(body);
    std::optional<net::Message> reply = client_->read_message();
    latency_s = since(t0);
    util::require(reply.has_value(), "server closed the connection");
    if (auto* result = std::get_if<net::SolveResult>(&reply->body)) {
      return std::move(result->solution);
    }
    return std::nullopt;
  }

 private:
  int fds_[2] = {-1, -1};
  std::thread serve_thread_;
  std::optional<net::ServeClient> client_;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Restricts `thread` to `cpus` (best effort: a refused request leaves
/// the thread where it was).
void pin(pthread_t thread, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)::pthread_setaffinity_np(thread, sizeof set, &set);
}

struct Served {
  double done_s = 0.0;  ///< completion time from the start of the timed phase
  double latency_s = 0.0;
  std::optional<core::Solution> answer;
};

net::ServerOptions server_options(std::size_t threads) {
  net::ServerOptions options;
  options.engine.threads = threads;
  return options;
}

double hit_rate(const engine::EngineStats& a, const engine::EngineStats& b) {
  const double n = static_cast<double>(b.instances - a.instances);
  return n > 0 ? static_cast<double>(b.memo_hits - a.memo_hits) / n : 0.0;
}

double shape_rate(const engine::EngineStats& a, const engine::EngineStats& b) {
  const double hits = static_cast<double>(b.shape_hits - a.shape_hits);
  const double misses = static_cast<double>(b.shape_entries - a.shape_entries);
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// Replays requests one at a time through the stages the server runs,
/// each in its own span, against `eng`, appending the answers to `out`.
void replay(const std::vector<Request>& requests,
            const std::vector<std::size_t>& order, engine::ReclaimEngine& eng,
            Tracer& tracer, std::vector<core::Solution>& out) {
  const core::SolveOptions options;
  for (const std::size_t index : order) {
    const std::uint64_t id = tracer.next_request();
    const std::string payload =
        net::encode(net::Message{id, requests[index].body});
    const engine::EngineStats before = eng.stats();
    std::size_t solve_span = 0;
    core::Solution solution;
    {
      const Tracer::Scope request(tracer, span::kRequest, id);
      net::Message message;
      {
        const Tracer::Scope s(tracer, span::kDecode, id);
        message = net::decode(payload);
      }
      const auto& body = std::get<net::SolveRequest>(message.body);
      graph::Digraph app;
      {
        const Tracer::Scope s(tracer, span::kParse, id);
        app = io::read_task_graph_from_string(body.graph_text);
      }
      sched::Mapping mapping(1);
      {
        const Tracer::Scope s(tracer, span::kListSchedule, id);
        mapping = sched::list_schedule(app, body.processors).mapping;
      }
      engine::MappedInstance mapped;
      {
        const Tracer::Scope s(tracer, span::kExecGraph, id);
        graph::Digraph exec = sched::build_execution_graph(app, mapping);
        mapped.instance = core::make_instance(
            std::move(exec), body.deadline,
            model::make_power_model(body.alpha, body.p_static, body.sleep));
        mapped.mapping = std::move(mapping);
      }
      {
        const Tracer::Scope s(tracer, span::kKey, id);
        const std::string key = engine::mapped_instance_key(
            mapped.instance, mapped.mapping, body.model, options);
        util::require(!key.empty(), "empty instance key");
      }
      {
        const Tracer::Scope s(tracer, span::kSolveOne, id,
                              mapped.instance.exec_graph.num_nodes());
        solve_span = s.index();
        solution = eng.solve_one(mapped, body.model, options);
      }
      {
        const Tracer::Scope s(tracer, span::kEncode, id);
        const std::string reply =
            net::encode(net::Message{id, net::SolveResult{solution}});
        util::require(!reply.empty(), "empty RESULT encoding");
      }
    }
    // A memo miss ran a solver: label its span with the route taken.
    if (eng.stats().memo_hits == before.memo_hits) {
      tracer.tag(solve_span, solution.method, solution.iterations);
    }
    out.push_back(std::move(solution));
  }
}

/// Replays `order` (stopping after `budget_s` at a multiple of `unit`
/// requests) and fills the per-layer facts every serve workload reports.
/// `served(k)` is the untraced answer of the k-th replayed request.
template <class Served>
LayerFacts replay_facts(const std::vector<Request>& requests,
                        const std::vector<std::size_t>& order,
                        std::size_t unit, double budget_s,
                        engine::ReclaimEngine& eng, Tracer& tracer,
                        const EndToEnd& e2e, const engine::EngineStats& before,
                        const engine::EngineStats& after,
                        const Served& served, Report& report) {
  std::vector<core::Solution> replayed;
  replayed.reserve(order.size());
  const auto r0 = Clock::now();
  for (std::size_t lo = 0; lo < order.size(); lo += unit) {
    const std::size_t hi = std::min(order.size(), lo + unit);
    const std::vector<std::size_t> part(
        order.begin() + static_cast<std::ptrdiff_t>(lo),
        order.begin() + static_cast<std::ptrdiff_t>(hi));
    replay(requests, part, eng, tracer, replayed);
    if (since(r0) >= budget_s) break;
  }
  const double replay_s = since(r0);

  std::size_t identical = 0;
  for (std::size_t k = 0; k < replayed.size(); ++k) {
    const core::Solution* answer = served(k);
    if (answer != nullptr && same_answer(replayed[k], *answer)) ++identical;
  }
  if (identical != replayed.size()) report.consistent = false;

  LayerFacts facts;
  facts.memo_hit_rate = hit_rate(before, after);
  facts.memo_evictions =
      static_cast<double>(after.memo_evictions - before.memo_evictions);
  facts.shape_hit_rate = shape_rate(before, after);
  double stages_us = 0.0;
  for (const char* stage : {span::kDecode, span::kParse, span::kListSchedule,
                            span::kExecGraph, span::kKey, span::kSolveOne,
                            span::kEncode}) {
    stages_us += median(tracer.durations(stage));
  }
  facts.transport_us = e2e.latency_p50_ms * 1e3 - stages_us;
  facts.untraced_inst_per_s = e2e.inst_per_s;
  facts.traced_inst_per_s = static_cast<double>(replayed.size()) / replay_s;
  facts.replay_identical_share =
      static_cast<double>(identical) / static_cast<double>(replayed.size());
  note("traced replay: " + std::to_string(replayed.size()) + " requests, " +
       std::to_string(identical) + " bit-identical to the served answers; " +
       fmt(facts.traced_inst_per_s, 6) + " inst/s traced (one thread) vs " +
       fmt(facts.untraced_inst_per_s, 6) + " untraced");
  return facts;
}

}  // namespace

void run_serve_warm(const Options& opt, Report& report) {
  util::Rng rng(opt.seed);
  const std::vector<Request> requests = warm_requests(opt.smoke ? 8 : 64, rng);
  const std::size_t n = requests.size();
  const model::EnergyModel model = model::ContinuousModel{kSmax};

  // Reference answers from a stand-alone engine, verified once, plus the
  // NO-DVFS energies (all outside every timed region).
  std::vector<core::Solution> refs(n);
  std::vector<char> ref_ok(n);
  std::vector<double> nodvfs(n);
  std::vector<double> tasks;
  std::map<std::string, std::size_t> routes;
  {
    engine::EngineOptions verify_options;
    verify_options.threads = 1;
    verify_options.memoize = false;
    engine::ReclaimEngine verifier(verify_options);
    for (std::size_t i = 0; i < n; ++i) {
      const engine::MappedInstance mapped = rebuild(requests[i].body);
      refs[i] = verifier.solve_one(mapped, model);
      std::string why;
      ref_ok[i] = verify_answer(mapped.instance, model, refs[i], &why);
      if (!ref_ok[i]) note("verification failed: " + why);
      nodvfs[i] = no_dvfs_energy(mapped.instance, model);
      tasks.push_back(static_cast<double>(requests[i].tasks));
      ++routes[refs[i].method];
    }
  }

  // Set-up: server + engine construction, connecting, and the warm pass
  // that fills the memo; repeated, the last one is kept.
  EndToEnd e2e;
  std::unique_ptr<net::ReclaimServer> server;
  std::unique_ptr<Connection> conn;
  while (more_setup(e2e.setup_s)) {
    conn.reset();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<net::ReclaimServer>(server_options(1));
    conn = std::make_unique<Connection>(*server);
    for (std::size_t i = 0; i < n; ++i) {
      double latency = 0.0;
      const auto answer = conn->call(requests[i].body, latency);
      if (!answer || !same_answer(*answer, refs[i])) report.consistent = false;
    }
    e2e.setup_s.push_back(since(t0));
  }

  // Timed: closed loop over whole passes of a seeded order.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> latencies;
  std::vector<double> done;
  latencies.reserve(1 << 18);
  done.reserve(1 << 18);
  std::vector<std::size_t> served(n, 0);
  std::size_t ok = 0;
  // The one request in flight alternates between the client and the
  // server reader, so the run is as fast as the CPU it lands on, and on a
  // shared VM one CPU can be a third slower than another for minutes (a
  // busy neighbour on the same physical core). Both threads therefore
  // move together over every CPU in turn, a quarter second on each, and
  // the run reports the mix.
  constexpr double kTurnS = 0.25;
  const std::vector<int> cpus = allowed_cpus();
  std::size_t turn = 0;
  const engine::EngineStats before = server->engine().stats();
  const auto t0 = Clock::now();
  while (since(t0) < opt.seconds) {
    if (!cpus.empty() && since(t0) >= kTurnS * static_cast<double>(turn)) {
      const std::vector<int> one = {cpus[turn++ % cpus.size()]};
      pin(pthread_self(), one);
      pin(conn->server_thread(), one);
    }
    for (const std::size_t i : order) {
      double latency = 0.0;
      const auto answer = conn->call(requests[i].body, latency);
      latencies.push_back(latency);
      done.push_back(since(t0));
      ++served[i];
      if (answer && ref_ok[i] && same_answer(*answer, refs[i])) ++ok;
    }
  }
  const double elapsed = since(t0);
  const engine::EngineStats after = server->engine().stats();
  conn.reset();
  server.reset();
  if (!cpus.empty()) pin(pthread_self(), cpus);

  double energy = 0.0;
  double reference = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    energy += static_cast<double>(served[i]) * refs[i].energy;
    reference += static_cast<double>(served[i]) * nodvfs[i];
  }
  const std::size_t attempted = latencies.size();
  report.attempted = attempted;
  report.failed = attempted - ok;
  // Medians over windows of one full turn over the CPUs (~1 s, ~15k
  // samples, ~150 beyond p99 each), so a burst of contention moves one
  // window, not the figure.
  const double cycle_s =
      kTurnS * static_cast<double>(std::max<std::size_t>(1, cpus.size()));
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(elapsed / cycle_s));
  const Windowed w = windowed(done, latencies, 0.99, windows);
  e2e.inst_per_s = w.rate;
  e2e.latency_p50_ms = w.p50 * 1e3;
  e2e.latency_tail_ms = w.tail * 1e3;
  e2e.success_rate = static_cast<double>(ok) / static_cast<double>(attempted);
  e2e.energy_reclaimed = 1.0 - energy / reference;

  note("serve-warm: " + std::to_string(n) + " distinct requests, " +
       std::to_string(attempted) + " served in " + fmt(elapsed, 4) +
       " s over " + std::to_string(std::max<std::size_t>(1, cpus.size())) +
       " CPUs in turn; rate, p50 and p99 are medians over " +
       std::to_string(windows) + " windows of " +
       std::to_string(attempted / windows) + " samples (" +
       std::to_string(attempted / windows / 100) + " beyond p99 each)");
  note_inputs("serve-warm", tasks,
              1.0 - static_cast<double>(n) / static_cast<double>(attempted),
              0.0, static_cast<double>(n),
              static_cast<double>(engine::EngineOptions{}.memo_capacity));
  note_routes(routes);

  if (!opt.trace) {
    e2e.report_to(report);
    return;
  }

  // Traced replay: a fresh inline engine warmed exactly like the server's,
  // then the served order replayed stage by stage.
  engine::EngineOptions replay_options;
  replay_options.threads = 1;
  engine::ReclaimEngine eng(replay_options);
  for (const Request& r : requests) (void)eng.solve_one(rebuild(r.body), model);
  std::vector<std::size_t> replay_order;
  const std::size_t replay_count =
      std::min<std::size_t>(attempted, opt.smoke ? 2000 : 50000);
  for (std::size_t k = 0; k < replay_count; ++k) {
    replay_order.push_back(order[k % n]);
  }
  Tracer tracer;
  tracer.reserve(replay_count * 8);
  LayerFacts facts = replay_facts(
      requests, replay_order, replay_count, opt.seconds, eng, tracer, e2e,
      before, after,
      [&](std::size_t k) { return &refs[replay_order[k]]; }, report);
  facts.route_total_us = tracer.root_total_us();
  add_layer_metrics(report, tracer, facts);
  write_spans(opt, tracer);
}

void run_serve_cold_dag(const Options& opt, Report& report) {
  util::Rng rng(opt.seed);
  const std::vector<Request> requests = cold_rounds(opt.smoke ? 2 : 100, rng);
  // The warm-up (one small DAG per family) is the same for every seed, so
  // set-up repeats the same program work.
  util::Rng warm_rng(0x5eed);
  const std::vector<Request> warmup = level_dags(0, warm_rng);
  const model::EnergyModel model = model::ContinuousModel{kSmax};
  constexpr std::size_t kConnections = 2;

  EndToEnd e2e;
  std::unique_ptr<net::ReclaimServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
  while (more_setup(e2e.setup_s)) {
    conns.clear();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<net::ReclaimServer>(server_options(2));
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(*server));
    }
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      double latency = 0.0;
      const auto answer =
          conns[i % kConnections]->call(warmup[i].body, latency);
      if (!answer || !answer->feasible) report.consistent = false;
    }
    e2e.setup_s.push_back(since(t0));
  }

  // Timed: each connection pulls the next request; once the time is up
  // the run closes at the next round boundary so every run serves whole
  // rounds (the same family x size mix).
  std::vector<Served> served(requests.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> limit{requests.size()};
  const engine::EngineStats before = server->engine().stats();
  const auto t0 = Clock::now();
  const auto client = [&](Connection& conn) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= limit.load()) return;
      Served& s = served[i];
      s.answer = conn.call(requests[i].body, s.latency_s);
      s.done_s = since(t0);
      if (since(t0) >= opt.seconds) {
        const std::size_t next = cursor.load();
        const std::size_t boundary =
            std::min(requests.size(),
                     (next + kColdRound - 1) / kColdRound * kColdRound);
        std::size_t expected = requests.size();
        limit.compare_exchange_strong(expected, boundary);
      }
    }
  };
  run_on_threads(kConnections, [&](std::size_t c) { client(*conns[c]); });
  const double elapsed = since(t0);
  const engine::EngineStats after = server->engine().stats();
  conns.clear();
  server.reset();
  const std::size_t count = limit.load();
  if (count == requests.size()) {
    note("serve-cold-dag: request pool exhausted before the time was up");
  }

  // Verification (untimed, so it may use every core): every RESULT must
  // be bit-identical to solve_one on the same instance and a correct
  // answer; NO-DVFS energies for energy_reclaimed. One engine per thread.
  std::vector<char> ok(count, 0);
  std::vector<double> nodvfs(count, 0.0);
  std::vector<double> tasks(count, 0.0);
  {
    const auto verify_range = [&](std::size_t lo, std::size_t step) {
      engine::EngineOptions verify_options;
      verify_options.threads = 1;
      verify_options.memoize = false;
      engine::ReclaimEngine verifier(verify_options);
      for (std::size_t i = lo; i < count; i += step) {
        const engine::MappedInstance mapped = rebuild(requests[i].body);
        tasks[i] = static_cast<double>(mapped.instance.exec_graph.num_nodes());
        nodvfs[i] = no_dvfs_energy(mapped.instance, model);
        if (!served[i].answer) continue;
        const core::Solution fresh = verifier.solve_one(mapped, model);
        ok[i] = same_answer(*served[i].answer, fresh) &&
                verify_answer(mapped.instance, model, fresh);
      }
    };
    const std::size_t workers =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    run_on_threads(workers, [&](std::size_t w) { verify_range(w, workers); });
  }

  std::vector<std::pair<double, double>> samples;  // done, latency
  std::map<std::string, std::size_t> routes;
  double energy = 0.0;
  double reference = 0.0;
  std::size_t good = 0;
  for (std::size_t i = 0; i < count; ++i) {
    samples.emplace_back(served[i].done_s, served[i].latency_s);
    if (!ok[i]) continue;
    ++good;
    energy += served[i].answer->energy;
    reference += nodvfs[i];
    ++routes[served[i].answer->method];
  }
  report.attempted = count;
  report.failed = count - good;
  // Medians over windows of five rounds (230 samples, 23 beyond p90).
  std::sort(samples.begin(), samples.end());
  std::vector<double> done;
  std::vector<double> latencies;
  for (const auto& [d, l] : samples) {
    done.push_back(d);
    latencies.push_back(l);
  }
  const std::size_t windows = std::max<std::size_t>(1, count / kColdRound / 5);
  const Windowed w = windowed(done, latencies, 0.90, windows);
  e2e.inst_per_s = w.rate;
  e2e.latency_p50_ms = w.p50 * 1e3;
  e2e.latency_tail_ms = w.tail * 1e3;
  e2e.success_rate = static_cast<double>(good) / static_cast<double>(count);
  e2e.energy_reclaimed = reference > 0.0 ? 1.0 - energy / reference : 0.0;

  note("serve-cold-dag: " + std::to_string(count) + " distinct requests (" +
       std::to_string(count / kColdRound) + " rounds) in " + fmt(elapsed, 4) +
       " s; rate, p50 and p90 are medians over " + std::to_string(windows) +
       " windows of " + std::to_string(count / windows) + " samples (" +
       std::to_string(count / windows / 10) + " beyond p90 each)");
  note_inputs("serve-cold-dag", tasks, 0.0, 0.0, static_cast<double>(count),
              static_cast<double>(engine::EngineOptions{}.memo_capacity));
  note_routes(routes);

  if (!opt.trace) {
    e2e.report_to(report);
    return;
  }

  // Traced replay of whole rounds of the served order on a fresh inline
  // engine (every solve is a memo miss, as it was when served), until half
  // the measuring time is spent.
  engine::EngineOptions replay_options;
  replay_options.threads = 1;
  engine::ReclaimEngine eng(replay_options);
  std::vector<std::size_t> replay_order(count);
  for (std::size_t k = 0; k < count; ++k) replay_order[k] = k;
  Tracer tracer;
  LayerFacts facts = replay_facts(
      requests, replay_order, kColdRound, opt.seconds / 2, eng, tracer, e2e,
      before, after,
      [&](std::size_t k) {
        const auto& answer = served[k].answer;
        return answer ? &*answer : nullptr;
      },
      report);
  // Bucket probe: the ~64-task level is rare in the served mix and the
  // ~96-task level too slow for it, so the traced run times one of each
  // per family on its own.
  {
    util::Rng probe_rng(opt.seed ^ 0x96);
    std::vector<Request> probe = level_dags(2, probe_rng);
    for (Request& r : level_dags(3, probe_rng)) probe.push_back(std::move(r));
    std::vector<std::size_t> all(probe.size());
    for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
    std::vector<core::Solution> answers;
    replay(probe, all, eng, tracer, answers);
    for (const core::Solution& answer : answers) {
      if (!answer.feasible) report.consistent = false;
    }
  }
  facts.route_total_us = tracer.root_total_us();
  add_layer_metrics(report, tracer, facts);
  write_spans(opt, tracer);
}

}  // namespace rb
