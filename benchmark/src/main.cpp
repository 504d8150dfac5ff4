// reclaim_bench: the repository benchmark program.
//
//   reclaim_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--trace-dir <dir>]
//
// Runs one workload (serve-warm, serve-cold-dag, batch-sweep,
// batch-models) in this process, verifies every answer, and prints
// commentary lines ("# ...") followed by one JSON result line. Exits 1
// when any answer fails verification, 2 on a usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace rb {

void EndToEnd::report_to(Report& report) const {
  note("set-up: " + std::to_string(setup_s.size()) +
       " repetitions, min/median/max " + fmt(quantile(setup_s, 0.0), 4) + "/" +
       fmt(median(setup_s), 4) + "/" + fmt(quantile(setup_s, 1.0), 4) + " s");
  report.add("setup_s", median(setup_s), "s");
  report.add("inst_per_s", inst_per_s, "1/s");
  report.add("latency_p50_ms", latency_p50_ms, "ms");
  report.add("latency_tail_ms", latency_tail_ms, "ms");
  report.add("success_rate", success_rate, "ratio");
  report.add("energy_reclaimed", energy_reclaimed, "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void note_inputs(const char* what, const std::vector<double>& tasks,
                 double repeat_share, double kernel_run_share,
                 double distinct, double memo_capacity) {
  std::ostringstream line;
  line << what << " inputs: tasks p10/p50/p90/max "
       << fmt(quantile(tasks, 0.1), 4) << '/' << fmt(quantile(tasks, 0.5), 4)
       << '/' << fmt(quantile(tasks, 0.9), 4) << '/'
       << fmt(quantile(tasks, 1.0), 4)
       << ", repeat share " << fmt(repeat_share, 4)
       << ", kernel-eligible-run share " << fmt(kernel_run_share, 4)
       << ", distinct working set " << fmt(distinct, 8) << " vs memo capacity "
       << fmt(memo_capacity, 8);
  note(line.str());
}

void note_routes(const std::map<std::string, std::size_t>& routes) {
  std::ostringstream line;
  line << "route mix:";
  for (const auto& [route, count] : routes) {
    line << ' ' << route << '=' << count;
  }
  note(line.str());
}

}  // namespace rb

namespace {

int usage(const std::string& error) {
  std::cerr << "reclaim_bench: " << error
            << "\nusage: reclaim_bench --workload <serve-warm|serve-cold-dag|"
               "batch-sweep|batch-models> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value();
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  rb::Report report;
  try {
    if (opt.workload == "serve-warm") {
      rb::run_serve_warm(opt, report);
    } else if (opt.workload == "serve-cold-dag") {
      rb::run_serve_cold_dag(opt, report);
    } else if (opt.workload == "batch-sweep") {
      rb::run_batch_sweep(opt, report);
    } else if (opt.workload == "batch-models") {
      rb::run_batch_models(opt, report);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "reclaim_bench: " << e.what() << '\n';
    return 1;
  }
  std::cout << report.json() << std::endl;
  if (!report.correct()) {
    std::cerr << "reclaim_bench: " << report.failed << " of "
              << report.attempted << " answers failed verification"
              << (report.consistent ? "" : " (or a consistency check failed)")
              << '\n';
    return 1;
  }
  return 0;
}
