// Shared plumbing of reclaim_bench: command-line options, the
// monotonic clock, order statistics, and the result record printed as the
// last line of standard output.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rb {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seconds since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scales every workload down so a run finishes in seconds (the
  /// benchmark's own tests use it).
  bool smoke = false;
  /// Directory the traced run writes its span file into ("" = no file).
  std::string trace_dir;
};

/// Linear-interpolated quantile q in [0, 1] of `values` (copied; 0 when
/// empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

[[nodiscard]] double sum(const std::vector<double>& values);

/// Medians over equal-count windows of an in-order sample series: each
/// window's completions per second, median latency and `tail_q` latency
/// quantile. A contention burst on the host then moves one window, not the
/// reported figure.
struct Windowed {
  double rate = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
};
/// `done_s` holds each sample's completion time from the start of the
/// timed phase, `latency_s` its latency.
[[nodiscard]] Windowed windowed(const std::vector<double>& done_s,
                                const std::vector<double>& latency_s,
                                double tail_q, std::size_t windows);

/// Runs fn(w) for w in [0, n): w = 0 on the calling thread, the rest on
/// their own threads. Joins every thread, then rethrows the first
/// exception any of them raised.
template <class F>
void run_on_threads(std::size_t n, F&& fn) {
  std::exception_ptr first;
  std::mutex mutex;
  const auto guarded = [&](std::size_t w) {
    try {
      fn(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!first) first = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < n; ++w) threads.emplace_back(guarded, w);
  guarded(0);
  for (std::thread& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// The result of one run: verification counts plus named metrics, in the
/// order they were added.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False once any check beyond per-answer verification fails (replay
  /// fidelity, a memo answer that differs from a fresh one, ...).
  bool consistent = true;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool correct() const {
    return consistent && failed == 0 && attempted > 0;
  }
  /// The single-line JSON result record.
  [[nodiscard]] std::string json() const;
};

/// Prints one human-readable line prefixed with "# " (everything before
/// the final JSON line is commentary for people, not for parsers).
void note(const std::string& line);

/// Formats a double with enough digits to round-trip.
[[nodiscard]] std::string fmt(double value, int precision = 6);

}  // namespace rb
