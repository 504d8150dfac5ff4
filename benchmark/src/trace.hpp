// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a module's
// public function (net::decode, io::read_task_graph_from_string,
// sched::list_schedule, ...). A span records its name, start, end, parent
// span and request id, plus a tag (the solver route of a solve, with its
// iteration count) and the instance size. Spans stay in memory until the
// run ends; then write() dumps them as TSV and the per-layer metrics are
// derived from them (self time = duration minus the children's
// durations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace rb {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    std::size_t size = 0;
    std::string tag;
    std::size_t work = 0;

    [[nodiscard]] double duration_us() const { return end_us - start_us; }
  };

  /// RAII span: opened on construction, closed on destruction. Nested
  /// scopes become children of the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0,
          std::size_t size = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::size_t index() const {
      return static_cast<std::size_t>(index_);
    }

   private:
    Tracer& tracer_;
    int index_;
    int saved_parent_;
  };

  Tracer() : t0_(Clock::now()) {}

  void reserve(std::size_t n) { spans_.reserve(n); }
  /// A fresh request id (1, 2, ...) for the spans of one request.
  [[nodiscard]] std::uint64_t next_request() { return ++requests_; }
  /// Labels span `index` with a solver route and its work measure
  /// (Solution::iterations); usable after the span has closed.
  void tag(std::size_t index, std::string tag, std::size_t work) {
    spans_[index].tag = std::move(tag);
    spans_[index].work = work;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self times (us): duration minus the durations of direct children.
  [[nodiscard]] std::vector<double> self_times() const;
  /// Sum of the durations of top-level spans.
  [[nodiscard]] double root_total_us() const;

  /// Writes one TSV row per span: id, parent, request, name, start_us,
  /// end_us, self_us, size, tag, work.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const {
    return seconds_between(t0_, Clock::now()) * 1e6;
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
  std::uint64_t requests_ = 0;
};

/// Writes the spans to <opt.trace_dir>/<workload>-seed<seed>.tsv (nothing
/// when opt.trace_dir is empty).
void write_spans(const Options& opt, const Tracer& tracer);

}  // namespace rb
